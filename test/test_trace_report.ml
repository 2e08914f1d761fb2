(* Tests for the report library. *)

module Summary = Cliffedge_report.Summary
module Table = Cliffedge_report.Table
module Json = Cliffedge_report.Json

let test_summary_singleton () =
  let s = Summary.of_list [ 5.0 ] in
  Alcotest.(check (float 0.0)) "mean" 5.0 s.Summary.mean;
  Alcotest.(check (float 0.0)) "stddev" 0.0 s.Summary.stddev;
  Alcotest.(check (float 0.0)) "median" 5.0 s.Summary.median

let test_summary_known_values () =
  let s = Summary.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Summary.mean;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Summary.max;
  Alcotest.(check int) "count" 8 s.Summary.count;
  (* sample stddev of this classic set is ~2.138 *)
  Alcotest.(check bool) "stddev" true (abs_float (s.Summary.stddev -. 2.138) < 0.01)

let test_summary_percentiles () =
  let s = Summary.of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "median" 50.0 s.Summary.median;
  Alcotest.(check (float 0.0)) "p90" 90.0 s.Summary.p90

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: empty sample")
    (fun () -> ignore (Summary.of_list []))

let test_summary_of_ints () =
  let s = Summary.of_ints [ 1; 2; 3 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.0 s.Summary.mean

let test_table_renders () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "long column" ] in
  Table.add_row t [ "1"; "x" ];
  Table.add_rows t [ [ "2"; "y" ]; [ "3"; "zzzz" ] ];
  let s = Table.render t in
  let mem sub =
    let len = String.length sub in
    let rec scan i =
      if i + len > String.length s then false
      else if String.sub s i len = sub then true
      else scan (i + 1)
    in
    Alcotest.(check bool) sub true (scan 0)
  in
  mem "== demo ==";
  mem "| a ";
  mem "| long column ";
  mem "| zzzz";
  (* All lines of the body share the same width. *)
  let widths =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '=')
    |> List.map String.length
  in
  Alcotest.(check int) "uniform line width" 1 (List.length (List.sort_uniq compare widths))

let test_table_row_mismatch () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Table.add_row: row width mismatches columns") (fun () ->
      Table.add_row t [ "only one" ])

(* A \u escape is exactly four hex digits; anything else is a parse
   error with an offset, never an exception out of [of_string]. *)
let test_json_unicode_escapes () =
  (match Json.of_string {|"caf\u00E9 \u00e9"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "decoded" "caf\xc3\xa9 \xc3\xa9" s
  | Ok _ | Error _ -> Alcotest.fail "valid escape rejected");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" bad)
    [ {|"\u12zz"|}; {|"\u+123"|}; {|"\u-123"|}; {|"\u1_23"|}; {|"\u12"|} ]

let suite =
  ( "trace/report",
    [
      Alcotest.test_case "summary singleton" `Quick test_summary_singleton;
      Alcotest.test_case "summary known values" `Quick test_summary_known_values;
      Alcotest.test_case "summary percentiles" `Quick test_summary_percentiles;
      Alcotest.test_case "summary empty" `Quick test_summary_empty;
      Alcotest.test_case "summary of ints" `Quick test_summary_of_ints;
      Alcotest.test_case "table renders" `Quick test_table_renders;
      Alcotest.test_case "table row mismatch" `Quick test_table_row_mismatch;
      Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
    ] )
