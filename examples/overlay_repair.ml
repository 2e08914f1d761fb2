(* Overlay repair: the application that motivated cliff-edge consensus
   (the authors' earlier work on generalised repair of overlay networks,
   [16] in the paper).

   A ring overlay loses two whole regions of nodes.  Each crashed
   region's border runs the protocol with a repair *planner* as its
   value proposer; the agreed decision value is a repair plan — edges to
   splice so the overlay stays connected.  Because the border nodes of a
   region decide the SAME plan (CD5), the repair is applied exactly once
   per region and the ring heals.

   Run with: dune exec examples/overlay_repair.exe *)

open Cliffedge_graph
module Repair = Cliffedge_repair.Session
module Plan = Cliffedge_repair.Plan
module Planner = Cliffedge_repair.Planner

let () =
  let graph = Topology.ring 32 in
  let region_a = Node_set.of_ints [ 10; 11; 12; 13 ] in
  let region_b = Node_set.of_ints [ 22; 23; 24 ] in
  let crashes =
    List.map (fun p -> (5.0, p)) (Node_set.elements region_a)
    @ List.map (fun p -> (7.0, p)) (Node_set.elements region_b)
  in
  let outcome = Repair.repair ~strategy:Planner.Chain_border ~graph ~crashes () in
  Format.printf "%a@." Repair.pp outcome;
  assert (Cliffedge.Checker.ok outcome.report);
  (* Two independent splices, e.g. 9--14 and 21--25. *)
  assert (List.length outcome.plans = 2);
  List.iter (fun (_, plan) -> assert (Plan.edge_count plan = 1)) outcome.plans;
  assert outcome.healed;
  assert (Graph.is_connected outcome.healed_overlay);
  Format.printf "overlay ring healed: %d survivors, connected = %b@."
    (Graph.node_count outcome.healed_overlay)
    (Graph.is_connected outcome.healed_overlay);

  (* The same session with the star strategy also heals, with a
     different shape. *)
  let star = Repair.repair ~strategy:Planner.Star_rewire ~graph ~crashes () in
  assert star.healed;
  Format.printf "star strategy also heals (%d plan edges total)@."
    (List.fold_left (fun acc (_, p) -> acc + Plan.edge_count p) 0 star.plans);
  Format.printf "overlay_repair: OK@."
