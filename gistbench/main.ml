(* gistbench: one command, three workloads.

     main.exe --workload bugbase|ingest|service --seed N --seconds S --trace 0|1

   Prints a report line (host, provenance and every measured metric
   with its quartiles and tail) and, last, the result line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics when untraced, the per-layer metrics when traced.  A traced
   run also writes its spans to .gistbench/spans-<workload>-<seed>.jsonl.
   Exit status: 0 when every correctness check passed, 1 when one
   failed, 2 on bad arguments, 3 when the output broke its own schema. *)

open Gistbench

let usage =
  "usage: main.exe --workload bugbase|ingest|service --seed N --seconds S --trace 0|1"

let die code msg =
  prerr_endline ("gistbench: " ^ msg);
  exit code

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then die 2 ("bad --seed " ^ v);
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0. && Float.is_finite s -> seconds := Some s
       | _ -> die 2 ("bad --seconds " ^ v));
      go rest
    | "--trace" :: v :: rest ->
      (match v with
       | "0" -> trace := Some false
       | "1" -> trace := Some true
       | _ -> die 2 ("bad --trace " ^ v));
      go rest
    | a :: _ -> die 2 ("unexpected argument " ^ a ^ "\n" ^ usage)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when List.mem w Decl.workloads -> (w, s, sec, t)
  | _ -> die 2 usage

let env_or k d = match Sys.getenv_opt k with Some v when v <> "" -> v | _ -> d

let () =
  let workload, seed, seconds, trace = parse_args () in
  let jobs_requested = Parallel.Jobs.effective () in
  let pool = Parallel.Pool.create ~jobs:jobs_requested in
  let ctx =
    {
      Common.seed;
      seconds;
      trace;
      pool;
      jobs_requested;
      jobs_effective = Parallel.Pool.jobs pool;
    }
  in
  let run =
    match workload with
    | "bugbase" -> Wl_bugbase.run
    | "ingest" -> Wl_ingest.run
    | _ -> Wl_service.run
  in
  let o = Fun.protect (fun () -> run ctx) ~finally:(fun () -> Parallel.Pool.shutdown pool) in
  let failures = List.filter (fun c -> not c.Common.c_ok) o.checks in
  List.iter
    (fun c -> Printf.eprintf "gistbench: check %s FAILED: %s\n" c.Common.c_name c.c_detail)
    failures;
  let correct = failures = [] in
  (match o.spans with
   | None -> ()
   | Some tr ->
     (try Sys.mkdir ".gistbench" 0o755 with Sys_error _ -> ());
     let path = Printf.sprintf ".gistbench/spans-%s-%d.jsonl" workload seed in
     Out_channel.with_open_text path (fun oc -> Trace.write oc tr);
     Printf.eprintf "gistbench: %d spans written to %s\n" (Trace.length tr) path);
  let decls = if trace then Decl.per_layer else Decl.end_to_end in
  let values = if trace then o.layers else o.contract in
  let metrics =
    List.map
      (fun (m : Decl.metric) ->
        match List.assoc_opt m.name values with
        | Some v -> (m.name, v, m.unit_)
        | None -> die 3 ("metric not produced: " ^ m.name))
      decls
  in
  let summaries =
    ("setup_s", "s", o.setup_s)
    :: ("setup_ref_s", "s", o.setup_ref_s)
    :: ("calib_kernel_s", "s", Calib.samples ())
    :: o.measured
    |> List.filter (fun (_, _, xs) -> xs <> [])
    |> List.map (fun (name, unit_, xs) -> (name, Schema.summary_json ~unit_ (Summary.summarize xs)))
  in
  List.iter
    (fun (name, j) ->
      match Schema.check_summary j with
      | Ok () -> ()
      | Error e -> die 3 (name ^ ": " ^ e))
    summaries;
  let report =
    Json.Object
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ( "host",
          Json.Object
            [
              ("nproc", Json.String (env_or "GISTBENCH_NPROC" "unknown"));
              ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Json.String Sys.ocaml_version);
              ("jobs_requested", Json.Int jobs_requested);
              ("jobs_effective", Json.Int ctx.jobs_effective);
            ] );
        ("commit", Json.String (env_or "GISTBENCH_COMMIT" "unknown"));
        ("metrics", Json.Object summaries);
        ( "checks",
          Json.Object
            [
              ("run", Json.Int (List.length o.checks));
              ("failed", Json.List (List.map (fun c -> Json.String c.Common.c_name) failures));
            ] );
      ]
  in
  print_endline (Json.to_string report);
  let line =
    Json.to_string
      (Schema.result_json ~correct ~attempted:o.attempted ~failed:o.failed metrics)
  in
  (match
     Schema.check_result ~expected:(List.map (fun (n, _, u) -> (n, u)) metrics) line
   with
   | Ok () -> ()
   | Error e -> die 3 e);
  print_endline line;
  exit (if correct then 0 else 1)
