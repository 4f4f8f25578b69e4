(* Extensions beyond the paper's core: Fiduccia–Mattheyses refinement
   and dual chain formulations. *)

open Helpers
module Fm = Tlp_baselines.Fiduccia_mattheyses
module Kl = Tlp_baselines.Kernighan_lin
module Dual = Tlp_core.Chain_dual
module Bandwidth = Tlp_core.Bandwidth
module Coc = Tlp_baselines.Chain_on_chain
module Graph = Tlp_graph.Graph

(* ---------- Fiduccia–Mattheyses ---------- *)

let graph_gen =
  let open QCheck2.Gen in
  let* n = int_range 4 30 in
  let* extra = int_range 0 30 in
  let* seed = int_range 0 100000 in
  return (n, extra, seed)

let make_graph (n, extra, seed) =
  let rng = Rng.create seed in
  let d = Weights.Uniform (1, 10) in
  Tlp_graph.Graph_gen.random_connected rng ~n ~extra_edges:extra ~weight_dist:d
    ~delta_dist:d

let prop_fm_cut_priced =
  qcheck ~count:100 "FM result prices its cut correctly and stays balanced"
    graph_gen
    (fun spec ->
      let g = make_graph spec in
      let rng = Rng.create 1 in
      let r = Fm.bisect rng g in
      let total = Graph.total_weight g in
      let side_a =
        Array.to_list (Array.init (Graph.n g) Fun.id)
        |> List.filter (fun v -> not r.Fm.side.(v))
        |> List.fold_left (fun acc v -> acc + Graph.weight g v) 0
      in
      let max_vertex =
        Array.fold_left Stdlib.max 0 (Array.init (Graph.n g) (Graph.weight g))
      in
      let slack = Stdlib.max (total / 10) max_vertex in
      r.Fm.cut_weight
      = Graph.cut_weight_of_assignment g
          (Array.map (fun b -> if b then 1 else 0) r.Fm.side)
      && side_a >= (total / 2) - slack - max_vertex
      && side_a <= (total / 2) + slack + max_vertex)

let prop_fm_refine_improves =
  qcheck ~count:100 "FM refinement never worsens the cut" graph_gen
    (fun spec ->
      let g = make_graph spec in
      let n = Graph.n g in
      let initial = Array.init n (fun v -> v mod 2 = 0) in
      let before =
        Graph.cut_weight_of_assignment g
          (Array.map (fun b -> if b then 1 else 0) initial)
      in
      let r = Fm.refine g initial in
      r.Fm.cut_weight <= before)

let test_fm_vs_kl_quality () =
  (* On a ring with one expensive edge, both should cut cheap edges. *)
  let rng = Rng.create 5 in
  let d = Weights.Constant 1 in
  let g = Tlp_graph.Graph_gen.ring rng ~n:16 ~weight_dist:d ~delta_dist:d in
  let fm = Fm.bisect (Rng.create 2) g in
  let kl = Kl.bisect (Rng.create 2) g in
  (* A balanced ring bisection cuts exactly 2 unit edges at best. *)
  check_bool "fm near-optimal" true (fm.Fm.cut_weight <= 4);
  check_bool "kl near-optimal" true (kl.Kl.cut_weight <= 4)

(* ---------- Chain duals ---------- *)

let prop_budget_dual_sound =
  qcheck ~count:200 "budget dual: minimal K whose optimum fits the budget"
    QCheck2.(
      Gen.pair (Gen.map Fun.id small_chain_gen) (Gen.int_range 0 50))
    (fun ((c, _), budget) ->
      let { Dual.k; cut; cut_weight } = Dual.min_bound_for_budget c ~budget in
      let opt k =
        match Bandwidth.deque c ~k with
        | Ok { Bandwidth.weight; _ } -> Some weight
        | Error _ -> None
      in
      Chain.is_feasible c ~k cut
      && cut_weight <= budget
      && cut_weight = Chain.cut_weight c cut
      && (* minimality: K-1 either infeasible or over budget *)
      (k <= Chain.max_alpha c
      || match opt (k - 1) with None -> true | Some w -> w > budget))

let prop_processor_dual_matches_minmax =
  qcheck ~count:200 "processor dual K equals the minmax optimum"
    QCheck2.(
      Gen.pair (Gen.map Fun.id small_chain_gen) (Gen.int_range 1 6))
    (fun ((c, _), m) ->
      let { Dual.k; cut; cut_weight } = Dual.min_bound_for_processors c ~m in
      let minmax = (Coc.nicol_probe c ~m).Coc.bottleneck in
      k = minmax
      && List.length cut <= m - 1
      && Chain.is_feasible c ~k cut
      && cut_weight = Chain.cut_weight c cut)

let prop_processor_dual_min_weight =
  qcheck ~count:200 "processor dual picks the cheapest cut at the optimal K"
    QCheck2.(
      Gen.pair (Gen.map Fun.id small_chain_gen) (Gen.int_range 1 5))
    (fun ((c, _), m) ->
      let { Dual.k; cut_weight; _ } = Dual.min_bound_for_processors c ~m in
      (* Brute force: cheapest cut with <= m-1 edges and components <= k. *)
      let n_edges = Chain.n_edges c in
      if n_edges > 14 then true
      else begin
        let best = ref max_int in
        for mask = 0 to (1 lsl n_edges) - 1 do
          let cut =
            List.filter
              (fun e -> mask land (1 lsl e) <> 0)
              (List.init n_edges Fun.id)
          in
          if List.length cut <= m - 1 && Chain.is_feasible c ~k cut then
            best := Stdlib.min !best (Chain.cut_weight c cut)
        done;
        cut_weight = !best
      end)

let suite =
  [
    prop_fm_cut_priced;
    prop_fm_refine_improves;
    Alcotest.test_case "FM and KL both near-optimal on a ring" `Quick
      test_fm_vs_kl_quality;
    prop_budget_dual_sound;
    prop_processor_dual_matches_minmax;
    prop_processor_dual_min_weight;
  ]
