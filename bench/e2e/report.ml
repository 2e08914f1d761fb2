(* Result files, the BENCHMARK.json declaration, and the two checks run
   over result files: [validate] (the smoke gate) and [agree] (do two
   sets of runs measure the same thing within the declared bounds). *)

module Json = Cliffedge_report.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ------------------------------------------------------------------ *)
(* Compact JSON output                                                 *)

(* The shortest decimal that reads back as the same float: every digit
   the measurement has, and no more. *)
let number f =
  if not (Float.is_finite f) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || Float.equal (float_of_string s) f then s else go (p + 1)
    in
    go 15

let rec compact b = function
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool v -> Buffer.add_string b (string_of_bool v)
  | Json.Int i -> Buffer.add_string b (string_of_int i)
  | Json.Float f -> Buffer.add_string b (number f)
  | Json.String s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Json.List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          compact b v)
        items;
      Buffer.add_char b ']'
  | Json.Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          compact b (Json.String k);
          Buffer.add_char b ':';
          compact b v)
        fields;
      Buffer.add_char b '}'

let to_line j =
  let b = Buffer.create 1024 in
  compact b j;
  Buffer.contents b

let result_fields (r : Measure.result) =
  [
    ("correct", Json.Bool r.correct);
    ("attempted", Json.Int r.attempted);
    ("failed", Json.Int r.failed);
    ( "metrics",
      Json.Obj
        (List.map
           (fun (m : Measure.metric) ->
             (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
           r.metrics) );
  ]

(* The last line a run prints: exactly the four result keys. *)
let result_line r = to_line (Json.Obj (result_fields r))

(* What [--json] writes: the result plus what produced it. *)
let result_file ~workload ~seed ~seconds ~trace (r : Measure.result) =
  to_line
    (Json.Obj
       ([
          ("workload", Json.String workload);
          ("seed", Json.Int seed);
          ("seconds", Json.Float seconds);
          ("trace", Json.Int (if trace then 1 else 0));
        ]
       @ result_fields r
       @ [ ("notes", Json.List (List.map (fun n -> Json.String n) r.notes)) ]))

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let load path =
  match Json.of_file path with
  | Ok j -> j
  | Error m -> bad "%s: malformed JSON: %s" path m
  | exception Sys_error m -> bad "%s" m
  | exception Failure m -> bad "%s: malformed JSON: %s" path m

let field path key j =
  match Json.member key j with Some v -> v | None -> bad "%s: missing key %S" path key

let str path key j =
  match field path key j with Json.String s -> s | _ -> bad "%s: %S is not a string" path key

let num path key j =
  match field path key j with
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> bad "%s: %S is not a number" path key

let int path key j =
  match field path key j with Json.Int i -> i | _ -> bad "%s: %S is not an integer" path key

let list path key j =
  match field path key j with Json.List l -> l | _ -> bad "%s: %S is not a list" path key

type declared = {
  name : string;
  unit : string;
  lower_is_better : bool;
  bound : float;  (** [nan] for per-layer metrics, which have none *)
}

type spec = { workloads : string list; end_to_end : declared list; per_layer : declared list }

let declared path ~bounded j =
  let name = str path "name" j in
  let at = Printf.sprintf "%s: metric %S" path name in
  let lower_is_better =
    match str at "better" j with
    | "lower" -> true
    | "higher" -> false
    | other -> bad "%s: \"better\" is %S, expected \"lower\" or \"higher\"" at other
  in
  let bound =
    if bounded then begin
      let b = num at "bound" j in
      if not (Float.is_finite b && b >= 0.) then bad "%s: bound %g is not a share >= 0" at b;
      b
    end
    else Float.nan
  in
  { name; unit = str at "unit" j; lower_is_better; bound }

let load_spec path =
  let j = load path in
  let workloads = List.map (str path "name") (list path "workloads" j) in
  let end_to_end = List.map (declared path ~bounded:true) (list path "end_to_end" j) in
  let per_layer = List.map (declared path ~bounded:false) (list path "per_layer" j) in
  if workloads = [] || end_to_end = [] || per_layer = [] then
    bad "%s: workloads, end_to_end and per_layer must be non-empty" path;
  { workloads; end_to_end; per_layer }

type run = {
  file : string;
  workload : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * (float * string)) list;  (** metric -> value, unit *)
}

let load_run file =
  let j = load file in
  let values =
    match field file "metrics" j with
    | Json.Obj fields ->
        List.map
          (fun (name, m) ->
            let at = Printf.sprintf "%s: metric %S" file name in
            let value =
              match field at "value" m with
              | Json.Int i -> float_of_int i
              | Json.Float f -> f
              | _ -> Float.nan
            in
            (name, (value, str at "unit" m)))
          fields
    | _ -> bad "%s: \"metrics\" is not an object" file
  in
  {
    file;
    workload = str file "workload" j;
    traced = int file "trace" j = 1;
    correct = (match field file "correct" j with Json.Bool b -> b | _ -> false);
    attempted = int file "attempted" j;
    failed = int file "failed" j;
    values;
  }

(* ------------------------------------------------------------------ *)
(* validate                                                            *)

(* Every problem with a set of result files that should together cover
   each declared workload, traced and untraced, with every declared
   metric present, finite and in its declared unit, and no failed op. *)
let problems spec runs =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  List.iter
    (fun r ->
      if not (List.mem r.workload spec.workloads) then
        err "%s: workload %S is not declared" r.file r.workload;
      if r.attempted < 1 then err "%s: no op attempted" r.file;
      if r.failed <> 0 || not r.correct then err "%s: %d of %d ops failed" r.file r.failed r.attempted;
      let declared = if r.traced then spec.per_layer else spec.end_to_end in
      List.iter
        (fun d ->
          match List.assoc_opt d.name r.values with
          | None -> err "%s: metric %s missing" r.file d.name
          | Some (v, u) ->
              if not (Float.is_finite v) then err "%s: metric %s is not a finite number" r.file d.name;
              if not (String.equal u d.unit) then
                err "%s: metric %s has unit %S, declared %S" r.file d.name u d.unit)
        declared;
      List.iter
        (fun (name, _) ->
          if not (List.exists (fun d -> String.equal d.name name) declared) then
            err "%s: metric %s is not declared" r.file name)
        r.values;
      if r.traced && String.equal r.workload Workload.mcheck_small.name then begin
        let expected =
          float_of_int (List.fold_left (fun acc (_, _, s) -> acc + s) 0 Workload.explored)
        in
        match List.assoc_opt "mcheck.states_per_op" r.values with
        | Some (v, _) when Float.equal v expected -> ()
        | Some (v, _) -> err "%s: mcheck.states_per_op is %g, expected %g" r.file v expected
        | None -> ()
      end)
    runs;
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          if not (List.exists (fun r -> String.equal r.workload w && r.traced = traced) runs) then
            err "no %s run of workload %s" (if traced then "traced" else "untraced") w)
        [ false; true ])
    spec.workloads;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* agree                                                               *)

type verdict = Agree | Better | Worse | Unresolved

let verdict_name = function
  | Agree -> "agree"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Compares set [b] against set [a] on one metric.  A median moving by
   more than the bound in either direction is a difference; with either
   set's spread wider than the bound the comparison cannot tell a
   difference from noise and is unresolved, unless every run of one set
   is better than every run of the other. *)
let compare_sets d a b =
  let better x y = if d.lower_is_better then x < y else x > y in
  let med_a = Sample.median a and med_b = Sample.median b in
  let delta = (med_b -. med_a) /. med_a in
  let all_better xs ys = Array.for_all (fun x -> Array.for_all (fun y -> better x y) ys) xs in
  let verdict =
    if Float.max (Sample.spread a) (Sample.spread b) > d.bound then
      if all_better b a then Better else if all_better a b then Worse else Unresolved
    else if Float.abs delta <= d.bound then Agree
    else if better med_b med_a then Better
    else Worse
  in
  (delta, verdict)

let agree spec set_a set_b =
  let values set w (d : declared) =
    List.filter_map
      (fun r ->
        if String.equal r.workload w && not r.traced then Option.map fst (List.assoc_opt d.name r.values)
        else None)
      set
    |> Array.of_list |> Sample.sorted
  in
  let describe xs =
    if Array.length xs < 2 then Printf.sprintf "n=%d" (Array.length xs)
    else
      let q1, q3 = Sample.quartiles xs in
      Printf.sprintf "n=%d median %.6g [q1 %.6g, q3 %.6g] spread %.1f%%" (Array.length xs)
        (Sample.median xs) q1 q3 (100. *. Sample.spread xs)
  in
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun d ->
            let a = values set_a w d and b = values set_b w d in
            let delta, verdict =
              if Array.length a < 2 || Array.length b < 2 then (Float.nan, Unresolved)
              else compare_sets d a b
            in
            Printf.printf "%-17s %-12s bound %4.1f%%  A %s\n%-17s %-12s %-12s B %s\n%-17s %-12s delta %+.1f%%  %s\n"
              w d.name (100. *. d.bound) (describe a) "" "" "" (describe b) "" "" (100. *. delta)
              (verdict_name verdict);
            verdict)
          spec.end_to_end)
      spec.workloads
  in
  let count v = List.length (List.filter (fun x -> x = v) rows) in
  Printf.printf "%d agree, %d better, %d worse, %d unresolved\n" (count Agree) (count Better)
    (count Worse) (count Unresolved);
  List.for_all (fun v -> v = Agree) rows
