(* Assemble interpreter hooks that interpret an instrumentation plan:
   toggling the PT recorder, arming watchpoints at access pre-points
   (evaluating the address the upcoming instruction will touch), and
   routing memory accesses through the watchpoint unit. *)

open Ir.Types

(* Address the instruction at this pre-point is about to access. *)
let addr_of_access (ctx : Exec.Interp.pre_ctx) =
  match ctx.ctx_instr.kind with
  | Load (_, base, off) | Store (base, off, _) -> (
    match base with
    | Reg r -> (
      match ctx.read_reg r with
      | Some (Exec.Value.VPtr a) -> Some (a + off)
      | _ -> None)
    | _ -> None)
  | Load_global (_, g) | Store_global (g, _) -> ctx.global_addr g
  | _ -> None

(* [wp_allowed] restricts which plan watchpoint targets this particular
   client arms: the cooperative rotation of §3.2.3 when the tracked
   slice touches more addresses than the 4 debug registers.

   The plan costs nothing away from its sites: [pre_instr] fires only
   where [sites] has actions, and the per-instruction PT pc tracking
   rides the [step] hook, which the interpreter calls right after
   [pre_instr] with nothing observable in between. *)
let hooks ~data_via_pt ~(sites : Plan.sites) ~(pt : Hw.Pt.recorder)
    ~(wp : Hw.Watchpoint.t) ~wp_allowed =
  let site_actions = sites.Plan.site_actions and site_wp = sites.Plan.site_wp in
  let h = Exec.Interp.no_hooks () in
  h.pre_sites <- sites.Plan.site_mask;
  (* Iids past the table carry no action: a mask emptied to "every
     instruction" reaches them. *)
  h.pre_instr <-
    (fun ctx ->
      let iid = ctx.ctx_instr.iid in
      if iid < Array.length site_actions then
        List.iter
          (fun (a : Plan.action) ->
            match a with
            | Pt_stop -> Hw.Pt.disable pt ~tid:ctx.ctx_tid ~pc:iid
            | Pt_start -> Hw.Pt.enable pt ~tid:ctx.ctx_tid ~pc:iid
            | Wp_arm ->
              if List.mem iid wp_allowed then (
                match addr_of_access ctx with
                | Some addr -> ignore (Hw.Watchpoint.arm wp addr)
                | None -> ()))
          site_actions.(iid));
  h.step <- (fun ~tid ~instr -> Hw.Pt.note_pc pt ~tid ~pc:instr.iid);
  h.mem_access <-
    (fun ~tid ~instr ~addr ~rw ~value ->
      (* PTWRITE extension: instrumented accesses emit data packets in
         the PT stream instead of (or alongside) trapping a watchpoint;
         no debug-register budget, no cooperative rotation. *)
      if data_via_pt && instr.iid < Array.length site_wp && site_wp.(instr.iid)
      then
        Hw.Pt.on_data pt ~tid ~iid:instr.iid ~addr ~rw ~value;
      Hw.Watchpoint.on_access wp ~tid ~iid:instr.iid ~addr ~rw ~value);
  h.branch <- (fun ~tid ~instr:_ ~taken -> Hw.Pt.on_branch pt ~tid ~taken);
  h.ret <- (fun ~tid ~instr:_ ~resume -> Hw.Pt.on_ret pt ~tid ~resume);
  h

(* Full-tracing hooks (no plan): PT enabled for every thread from its
   first instruction -- the Fig. 13 "Intel PT full tracing" setup. *)
let full_tracing_hooks ~(pt : Hw.Pt.recorder) =
  let h = Exec.Interp.no_hooks () in
  h.step <-
    (fun ~tid ~instr ->
      if not (Hw.Pt.enabled pt tid) then Hw.Pt.enable pt ~tid ~pc:instr.iid;
      Hw.Pt.note_pc pt ~tid ~pc:instr.iid);
  h.branch <- (fun ~tid ~instr:_ ~taken -> Hw.Pt.on_branch pt ~tid ~taken);
  h.ret <- (fun ~tid ~instr:_ ~resume -> Hw.Pt.on_ret pt ~tid ~resume);
  h
