(* An instrumentation plan: the "binary patch" Gist ships to production
   clients (paper §4 uses bsdiff patches; here a plan is interpreted by
   the runtime hooks in [Runtime]).  Actions fire at the pre-point of
   an instruction, i.e. just before it executes. *)

open Ir.Types

type action =
  | Pt_stop   (* disable Intel PT tracing (applied before Pt_start) *)
  | Pt_start  (* enable Intel PT tracing *)
  | Wp_arm    (* arm a hardware watchpoint on the address this access will touch *)

type t = {
  actions : (iid, action list) Hashtbl.t;
  tracked : iid list;     (* the slice portion being monitored *)
  wp_targets : iid list;  (* tracked memory accesses eligible for watchpoints *)
}

let empty () = { actions = Hashtbl.create 8; tracked = []; wp_targets = [] }

let add_action t iid a =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.actions iid) in
  if not (List.mem a cur) then
    (* Keep stops before starts so a shared point flushes then restarts. *)
    let next = List.sort compare (a :: cur) in
    Hashtbl.replace t.actions iid next

let actions_at t iid = Option.value ~default:[] (Hashtbl.find_opt t.actions iid)

(* The plan compiled for the runtime, iid-indexed: its actions, the
   mask of iids that carry any, and its watchpoint targets.  The mask
   is never empty (an empty plan compiles to [[|false|]]), so it never
   reads as "every instruction". *)
type sites = {
  site_actions : action list array;
  site_mask : bool array;
  site_wp : bool array;
}

let sites t =
  let n = Hashtbl.fold (fun iid _ n -> max n (iid + 1)) t.actions 1 in
  let n = List.fold_left (fun n iid -> max n (iid + 1)) n t.wp_targets in
  let site_actions = Array.make n [] and site_mask = Array.make n false in
  Hashtbl.iter
    (fun iid acts ->
      if acts <> [] then begin
        site_actions.(iid) <- acts;
        site_mask.(iid) <- true
      end)
    t.actions;
  let site_wp = Array.make n false in
  List.iter (fun iid -> site_wp.(iid) <- true) t.wp_targets;
  { site_actions; site_mask; site_wp }

let n_actions t = Hashtbl.fold (fun _ l acc -> acc + List.length l) t.actions 0

(* A stable content digest (splitmix64-style avalanche fold over the
   sorted patch points, tracked set and watchpoint targets).  Clients
   echo it in their report envelope; the server rejects reports built
   under a plan from a previous iteration. *)
let id t =
  let mix h x =
    let open Int64 in
    let z = add (of_int h) (mul (of_int ((2 * x) + 1)) 0x9E3779B97F4A7C15L) in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = logxor z (shift_right_logical z 31) in
    to_int (logand z 0x3FFFFFFFFFFFFFFFL)
  in
  let action_tag = function Pt_stop -> 1 | Pt_start -> 2 | Wp_arm -> 3 in
  let h = List.fold_left mix 17 t.tracked in
  let h = List.fold_left mix (mix h 0x51) t.wp_targets in
  Hashtbl.fold (fun iid acts acc -> (iid, acts) :: acc) t.actions []
  |> List.sort compare
  |> List.fold_left
       (fun h (iid, acts) ->
         List.fold_left (fun h a -> mix h (action_tag a)) (mix h iid) acts)
       (mix h 0x52)

let pp ppf t =
  Fmt.pf ppf "@[<v>plan: tracked=[%a] wp=[%a]@,"
    Fmt.(list ~sep:(any " ") int) t.tracked
    Fmt.(list ~sep:(any " ") int) t.wp_targets;
  Hashtbl.fold (fun iid acts acc -> (iid, acts) :: acc) t.actions []
  |> List.sort compare
  |> List.iter (fun (iid, acts) ->
      Fmt.pf ppf "  @%d: %a@," iid
        Fmt.(list ~sep:(any ",") (fun ppf -> function
           | Pt_stop -> Fmt.string ppf "pt-stop"
           | Pt_start -> Fmt.string ppf "pt-start"
           | Wp_arm -> Fmt.string ppf "wp-arm"))
        acts);
  Fmt.pf ppf "@]"
