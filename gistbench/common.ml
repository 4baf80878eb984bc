(* What every workload shares: the run context, the outcome record
   main.ml prints, set-up repetition, heap and GC readings, and the
   diagnosis signature the correctness checks compare. *)

open Gistbench

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  pool : Parallel.Pool.t;
  jobs_requested : int;  (** [Parallel.Jobs.effective ()], the CLI default *)
  jobs_effective : int;  (** worker domains [Parallel.Pool] spawned for it *)
}

(* The caller helps run pool tasks, so executors = workers + 1. *)
let executors ctx = ctx.jobs_effective + 1

type check = { c_name : string; c_ok : bool; c_detail : string }

let check c_name c_ok c_detail = { c_name; c_ok; c_detail }

type outcome = {
  attempted : int;
  failed : int;
  checks : check list;
  setup_s : float list;  (** one sample per set-up repetition *)
  setup_ref_s : float list;  (** the same, at reference host speed ({!Calib}) *)
  measured : (string * string * float list) list;
      (** the workload's own metrics (name, unit, samples), reported
          with their quartiles and tail on the report line *)
  contract : (string * float) list;  (** end-to-end values, untraced run *)
  layers : (string * float) list;    (** per-layer values, traced run *)
  spans : Trace.t option;
}

(* Set-up runs this many times per run; [setup_s] is the median.
   Returns the last result with the raw and reference-speed seconds of
   every repetition.  The heap is compacted before the timed phase, so
   the timed work does not pay to collect the earlier repetitions'
   garbage. *)
let setup_reps = 3

let repeat_setup f =
  let rec go i raw scaled last =
    if i = setup_reps then begin
      Gc.compact ();
      (Option.get last, List.rev raw, List.rev scaled)
    end
    else
      let r, s, s_ref = Calib.timed f in
      go (i + 1) (s :: raw) (s_ref :: scaled) (Some r)
  in
  go 0 [] [] None

(* Run [f i] for i = 0, 1, ... until [seconds] have passed, at least
   once. *)
let repeat_for ~seconds f =
  let t0 = Clock.now_ns () in
  let rec go i acc =
    if i >= 1 && Clock.since_s t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* [Gc.quick_stat]'s high-water mark of the major heap, over the whole
   process so far. *)
let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

type gc_delta = { minor_words : float; minor_collections : int; major_collections : int }

let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

let gc_layers deltas =
  let med f = Summary.median (List.map f deltas) in
  [
    ("gc.minor_words", med (fun d -> d.minor_words));
    ("gc.minor_collections", med (fun d -> float_of_int d.minor_collections));
    ("gc.major_collections", med (fun d -> float_of_int d.major_collections));
  ]

(* GC phase time from OCaml's runtime events: the summed duration of
   every minor collection and every major slice, on every domain,
   between [reset] and the last [poll].  Started only by traced runs;
   the ring lives in a file the runtime removes at exit. *)
module Gc_events = struct
  type totals = {
    started : (int * bool, int64) Hashtbl.t;  (** (domain, is_minor) -> begin *)
    mutable minor_ns : int;
    mutable major_ns : int;
    mutable lost : int;
    mutable on : bool;
  }

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    totals : totals;
  }

  let phase = function
    | Runtime_events.EV_MINOR -> Some true
    | Runtime_events.EV_MAJOR_SLICE -> Some false
    | _ -> None

  let create () =
    Runtime_events.start ();
    let c = { started = Hashtbl.create 4; minor_ns = 0; major_ns = 0; lost = 0; on = false } in
    let ns ts = Runtime_events.Timestamp.to_int64 ts in
    let runtime_begin dom ts p =
      Option.iter (fun minor -> Hashtbl.replace c.started (dom, minor) (ns ts)) (phase p)
    in
    let runtime_end dom ts p =
      Option.iter
        (fun minor ->
          match Hashtbl.find_opt c.started (dom, minor) with
          | None -> ()
          | Some t0 ->
            Hashtbl.remove c.started (dom, minor);
            let d = Int64.to_int (Int64.sub (ns ts) t0) in
            if c.on then
              if minor then c.minor_ns <- c.minor_ns + d else c.major_ns <- c.major_ns + d)
        (phase p)
    in
    let lost_events _ n = c.lost <- c.lost + n in
    {
      cursor = Runtime_events.create_cursor None;
      callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
      totals = c;
    }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  (* Count GC time only while [f] runs. *)
  let during t f =
    poll t;
    t.totals.on <- true;
    Fun.protect f ~finally:(fun () ->
        poll t;
        t.totals.on <- false)

  let minor_s t = Clock.to_s t.totals.minor_ns
  let major_s t = Clock.to_s t.totals.major_ns
  let lost t = t.totals.lost
end

(* Every field of a diagnosis that must not depend on scheduling,
   batching or pool size: iteration trace, fleet dispatch count and
   the ranked predictors with their counts. *)
let diagnosis_signature (d : Gist.Server.diagnosis) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "dispatched=%d iterations=%d recurrences=%d|"
    d.fleet.f_dispatched d.iterations d.recurrences;
  List.iter
    (fun (it : Gist.Server.iteration_info) ->
      Printf.bprintf buf "it(sigma=%d,clients=%d,fails=%d,succs=%d,%s)"
        it.it_sigma it.it_clients it.it_fails it.it_succs
        (match it.it_early_exit with
         | None -> "-"
         | Some e -> Gist.Server.early_exit_label e))
    d.trace;
  Buffer.add_char buf '|';
  List.iter
    (fun (r : Predict.Stats.ranked) ->
      Printf.bprintf buf "%s(f=%d,s=%d);"
        (Predict.Predictor.to_string r.predictor)
        r.n_failing_with r.n_success_with)
    d.sketch.Fsketch.Sketch.predictors;
  Buffer.contents buf

let top_predictor (d : Gist.Server.diagnosis) =
  match d.sketch.Fsketch.Sketch.predictors with
  | [] -> "none"
  | r :: _ -> Predict.Predictor.to_string r.Predict.Stats.predictor

(* Per-layer values a workload does not produce read 0. *)
let fill_layers values =
  List.map
    (fun (m : Decl.metric) ->
      (m.name, Option.value ~default:0. (List.assoc_opt m.name values)))
    Decl.per_layer

let ratio a b = if b = 0. then 0. else a /. b
