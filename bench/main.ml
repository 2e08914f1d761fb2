(* Benchmark and experiment entry point.

   Usage:
     dune exec bench/main.exe            # everything: X1-X16 + micro
     dune exec bench/main.exe -- x4 x5   # selected experiments
     dune exec bench/main.exe -- micro   # bechamel micro-benchmarks only

   Each experiment regenerates one table of EXPERIMENTS.md. *)

module Json = Cliffedge_report.Json

let usage () =
  print_endline
    "usage: main.exe [x1 .. x16 | trace | largen | micro | smoke | all | \
     COMMAND] [--csv DIR] [--json FILE]";
  print_endline "  x1  Fig. 1(a): disjoint regions, independent agreements";
  print_endline "  x2  Fig. 1(b): cascade race F1 -> F3";
  print_endline "  x3  Fig. 2: adjacent faulty domains, progress";
  print_endline "  x4  locality: cost vs system size (vs global baseline)";
  print_endline "  x5  cost vs region size";
  print_endline "  x6  cascade depth vs restarts/convergence";
  print_endline "  x7  randomized CD1-CD7 validation matrix";
  print_endline "  x8  early-termination ablation (footnote 6)";
  print_endline "  x9  CD5 anomaly: raw vs channel-consistent failure detector";
  print_endline "  x10 exhaustive model checking of small configurations";
  print_endline "  x11 decide-once vs group-membership view churn";
  print_endline "  x12 overlay repair strategy ablation";
  print_endline "  x13 assumption ablation: false suspicions break CD2";
  print_endline "  x14 lifecycle churn: repeated waves over a self-healing overlay";
  print_endline "  x15 reaction time vs detection latency";
  print_endline "  x16 ARQ-over-lossy-channel overhead: drop rate x backoff policy";
  print_endline
    "  trace  causal-trace latency histograms (lib/obs) on the lossy X16 scenario";
  print_endline
    "  largen  one run and a 512-crash cascade on an implicit 100k-node ring";
  print_endline "  micro  bechamel micro-benchmarks";
  print_endline "  smoke  one tiny micro-bench; with --json, validates the output file";
  print_endline
    "  check-trace FILE  validate a Chrome trace_event file written by \
     cliffedge-cli trace --format chrome";
  print_endline
    "  alloc  allocation budgets: Gc.minor_words per op of each \
     steady-state path, against its quoted budget";
  print_endline
    "  compare OLD.json NEW.json [--threshold PCT] [--alloc-threshold PCT]";
  print_endline
    "         regression gate: fail if a micro benchmark present in both \
     files got slower than OLD by more than PCT% (default 15)";
  print_endline "options:";
  print_endline "  --csv DIR    also write every table to DIR/<slug>.csv";
  print_endline "  --json FILE  merge machine-readable timings into FILE (see BENCH_PR1.json)"

(* Re-reads the --json output and checks that it is well-formed JSON
   with the sections the harness just claimed to write.  This is the
   @bench-smoke guard against the emitter and parser drifting apart. *)
let validate_json file sections =
  match Json.of_file file with
  | Error message ->
      Printf.eprintf "bench: %s does not parse: %s\n" file message;
      exit 1
  | Ok root ->
      let missing =
        List.filter (fun section -> Json.member section root = None) sections
      in
      if missing <> [] then begin
        Printf.eprintf "bench: %s is missing section(s): %s\n" file
          (String.concat ", " missing);
        exit 1
      end;
      Printf.printf "json ok: %s (%s)\n" file (String.concat ", " sections)

(* Validates a Chrome trace_event JSON file as written by `cliffedge-cli
   trace --format chrome`: the schema Perfetto/chrome://tracing load.
   Guards the exporter against drifting from the viewer contract, in
   the same style as [validate_json] for the bench emitter. *)
let check_trace file =
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        Printf.eprintf "bench: %s: %s\n" file message;
        exit 1)
      fmt
  in
  match Json.of_file file with
  | Error message -> fail "does not parse: %s" message
  | Ok root ->
      (match Json.member "displayTimeUnit" root with
      | Some (Json.String _) -> ()
      | Some _ -> fail "displayTimeUnit is not a string"
      | None -> fail "missing displayTimeUnit");
      let events =
        match Json.member "traceEvents" root with
        | Some (Json.List (_ :: _ as events)) -> events
        | Some (Json.List []) -> fail "traceEvents is empty"
        | Some _ -> fail "traceEvents is not a list"
        | None -> fail "missing traceEvents"
      in
      let phases = ref [] in
      List.iteri
        (fun i event ->
          let field key =
            match Json.member key event with
            | Some v -> v
            | None -> fail "traceEvents[%d] is missing %s" i key
          in
          let string_field key =
            match field key with
            | Json.String s -> s
            | _ -> fail "traceEvents[%d].%s is not a string" i key
          in
          let int_field key =
            match field key with
            | Json.Int _ -> ()
            | _ -> fail "traceEvents[%d].%s is not an integer" i key
          in
          ignore (string_field "name");
          int_field "pid";
          int_field "tid";
          let ph = string_field "ph" in
          if not (List.mem ph [ "M"; "i"; "s"; "f" ]) then
            fail "traceEvents[%d].ph %S is not one of M/i/s/f" i ph;
          if not (String.equal ph "M") then begin
            (match field "ts" with
            | Json.Int _ | Json.Float _ -> ()
            | _ -> fail "traceEvents[%d].ts is not a number" i);
            if String.equal ph "s" || String.equal ph "f" then int_field "id"
          end;
          if not (List.mem ph !phases) then phases := ph :: !phases)
        events;
      (* A useful trace has at least metadata, instants and one causal
         flow pair; a filter that strips everything should fail loudly
         here rather than ship an empty-looking file. *)
      List.iter
        (fun ph ->
          if not (List.mem ph !phases) then
            fail "no %S events (metadata/instant/flow expected)" ph)
        [ "M"; "i"; "s"; "f" ];
      Printf.printf "trace ok: %s (%d event(s))\n" file (List.length events)

(* ------------------------------------------------------------------ *)
(* compare: the ratcheting regression gate between two BENCH files.

   Walks the [micro] sections of a baseline and a candidate file and
   fails (exit 1) when any benchmark present in both got slower than
   the baseline by more than the threshold.  Times and allocation
   counters ratchet independently: wall time is noisy (the @bench-smoke
   wiring passes a loose --threshold), while words-per-run are
   near-deterministic and get a tight default.  A small absolute slack
   keeps nanosecond-scale benchmarks from tripping on scheduler
   jitter.  Benchmarks present in only one file are skipped, so a
   one-bench smoke file can be gated against a full baseline. *)

let get_number key json =
  match Json.member key json with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | Some _ | None -> None

let compare_files ~threshold ~alloc_threshold baseline candidate =
  let load file =
    match Json.of_file file with
    | Error message ->
        Printf.eprintf "bench: %s does not parse: %s\n" file message;
        exit 1
    | Ok root -> root
  in
  let micro file root =
    match Json.member "micro" root with
    | Some (Json.Obj fields) -> fields
    | Some _ | None ->
        Printf.eprintf "bench: %s has no micro section\n" file;
        exit 1
  in
  (* The alloc_cert section (per-row Gc.minor_words deltas from
     `bench alloc`) ratchets like the micro allocation counters when
     both files carry it; baselines that predate the section simply
     skip it, and a baseline row the candidate lacks is noted like a
     missing micro row, so a deleted or renamed row leaves a trace. *)
  let alloc_cert root =
    match Json.member "alloc_cert" root with
    | Some (Json.Obj fields) -> fields
    | Some _ | None -> []
  in
  let old_root = load baseline and new_root = load candidate in
  let old_micro = micro baseline old_root in
  let new_micro = micro candidate new_root in
  let regressions = ref [] in
  let compared = ref 0 and skipped = ref 0 and alloc_missing = ref 0 in
  let alloc_skipped = ref 0 in
  let check ~name ~metric ~pct ~slack old_v new_v =
    incr compared;
    let limit = (old_v *. (1.0 +. (pct /. 100.0))) +. slack in
    let verdict =
      if new_v > limit then begin
        regressions :=
          Printf.sprintf "%s [%s]: %.1f -> %.1f (limit %.1f at +%g%%)" name
            metric old_v new_v limit pct
          :: !regressions;
        "REGRESSED"
      end
      else "ok"
    in
    Printf.printf "  %-52s %-20s %12.1f -> %12.1f  %s\n" name metric old_v
      new_v verdict
  in
  Printf.printf "bench compare: %s -> %s (time +%g%%, alloc +%g%%)\n" baseline
    candidate threshold alloc_threshold;
  List.iter
    (fun (name, old_entry) ->
      match List.assoc_opt name new_micro with
      | None -> incr skipped
      | Some new_entry ->
          (match
             (get_number "ns_per_run" old_entry, get_number "ns_per_run" new_entry)
           with
          | Some old_v, Some new_v ->
              check ~name ~metric:"ns/run" ~pct:threshold ~slack:5.0 old_v new_v
          | _ -> ());
          List.iter
            (fun metric ->
              match
                (get_number metric old_entry, get_number metric new_entry)
              with
              | Some old_v, Some new_v when old_v > 0.0 ->
                  check ~name ~metric ~pct:alloc_threshold ~slack:16.0 old_v
                    new_v
              (* A zero baseline is a clamped OLS estimate, not a real
                 measurement (benchmarks whose recorded words/run is
                 0.0 allocate hundreds of words when probed directly —
                 the per-run fit is ill-conditioned when allocation
                 does not scale with the iteration count): there is no
                 honest ratio to ratchet, so it degrades like a
                 missing counter.  Genuinely zero-alloc paths are
                 gated by the alloc_cert section below, whose counts
                 come from direct Gc.minor_words deltas. *)
              | Some _, Some _ -> incr alloc_missing
              (* Pre-PR6 baselines predate the allocation counters:
                 degrade to the time ratchet with a visible warning
                 rather than failing or silently narrowing the gate. *)
              | None, Some _ -> incr alloc_missing
              | _ -> ())
            [ "minor_words_per_run"; "major_words_per_run" ])
    old_micro;
  List.iter
    (fun (name, old_entry) ->
      match List.assoc_opt name (alloc_cert new_root) with
      | None -> incr alloc_skipped
      | Some new_entry -> (
          match
            ( get_number "minor_words_per_op" old_entry,
              get_number "minor_words_per_op" new_entry )
          with
          | Some old_v, Some new_v ->
              check ~name:("alloc: " ^ name) ~metric:"minor_words_per_op"
                ~pct:alloc_threshold ~slack:0.5 old_v new_v
          | _ -> ()))
    (alloc_cert old_root);
  if !alloc_missing > 0 then
    Printf.printf
      "  warning: %d allocation counter(s) absent from or unmeasured (0.0) \
       in baseline %s: alloc ratchet skipped for those metrics\n"
      !alloc_missing baseline;
  if !skipped > 0 then
    Printf.printf "  (%d baseline benchmark(s) absent from %s: skipped)\n"
      !skipped candidate;
  if !alloc_skipped > 0 then
    Printf.printf "  (%d baseline alloc_cert row(s) absent from %s: skipped)\n"
      !alloc_skipped candidate;
  match !regressions with
  | [] ->
      Printf.printf "compare ok: %d metric(s) within thresholds\n" !compared
  | regs ->
      Printf.eprintf "bench: %d regression(s) vs %s:\n" (List.length regs)
        baseline;
      List.iter (fun r -> Printf.eprintf "  %s\n" r) (List.rev regs);
      exit 1

let compare_command rest =
  let threshold = ref 15.0 and alloc_threshold = ref 15.0 in
  let files = ref [] in
  let pct flag v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 -> f
    | Some _ | None ->
        Printf.eprintf "bench: %s expects a non-negative percentage, got %S\n"
          flag v;
        exit 1
  in
  let rec go = function
    | "--threshold" :: v :: rest ->
        threshold := pct "--threshold" v;
        go rest
    | "--alloc-threshold" :: v :: rest ->
        alloc_threshold := pct "--alloc-threshold" v;
        go rest
    | file :: rest ->
        files := file :: !files;
        go rest
    | [] -> ()
  in
  go rest;
  (* --json FILE is stripped by the global option parser into
     [Json_out.path]; compare records nothing, so it would be a silent
     no-op. *)
  if Json_out.enabled () then begin
    prerr_endline "bench: compare writes no --json file";
    exit 1
  end;
  match List.rev !files with
  | [ baseline; candidate ] ->
      compare_files ~threshold:!threshold ~alloc_threshold:!alloc_threshold
        baseline candidate
  | _ ->
      prerr_endline
        "bench: compare needs OLD.json NEW.json [--threshold PCT] \
         [--alloc-threshold PCT]";
      exit 1

let run_experiment name =
  match List.assoc_opt name Experiments.all with
  | Some f ->
      Format.printf "@.";
      let (), wall_ms = Json_out.time_ms f in
      Json_out.record ~section:name [ ("wall_ms", Json.Float wall_ms) ]
  | None when String.equal name "micro" -> Micro.run ()
  | None when String.equal name "smoke" ->
      Micro.run ~quota:0.05 ~stabilize:false ~only:"graph: border" ();
      Experiments.x16_smoke ();
      Experiments.trace_smoke ();
      Experiments.largen_smoke ();
      Option.iter
        (fun file -> validate_json file [ "micro"; "x16"; "trace"; "largen" ])
        !Json_out.path
  | None when String.equal name "all" ->
      Experiments.run_all ();
      Micro.run ()
  | None ->
      usage ();
      exit 1

(* Strips [--csv DIR] / [--json FILE] wherever they appear, configuring
   table CSV export and machine-readable timing output; returns the
   remaining (command) arguments. *)
let rec parse_options = function
  | "--csv" :: dir :: rest ->
      Cliffedge_report.Table.set_csv_dir (Some dir);
      parse_options rest
  | "--json" :: file :: rest ->
      Json_out.set_path file;
      parse_options rest
  | arg :: rest -> arg :: parse_options rest
  | [] -> []

let () =
  match parse_options (List.tl (Array.to_list Sys.argv)) with
  | [ arg ] when List.mem arg [ "-h"; "--help"; "help" ] -> usage ()
  | [ "check-trace"; file ] -> check_trace file
  | [ "check-trace" ] ->
      prerr_endline "bench: check-trace needs a FILE argument";
      exit 1
  | "alloc" :: rest -> Alloc_cert.command rest
  | "compare" :: rest -> compare_command rest
  | [] ->
      Experiments.run_all ();
      Micro.run ()
  | args -> List.iter run_experiment args
