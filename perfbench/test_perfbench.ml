(* Tests for the benchmark's statistics and reference models. *)

module Stats = Tdb_perfbench.Stats
module Model = Tdb_perfbench.Model
module Chronon = Tdb_time.Chronon
module Value = Tdb_relation.Value
module Workload = Tdb_benchkit.Workload

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check close "one" 7.0 (Stats.median [| 7.0 |]);
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.median a);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] a

let test_geomean () =
  Alcotest.check close "pair" 4.0 (Stats.geomean [| 2.0; 8.0 |]);
  Alcotest.check close "constant" 5.0 (Stats.geomean [| 5.0; 5.0; 5.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let ascending n = Array.init n (fun k -> float_of_int (k + 1))

let test_tail () =
  let tail n = Stats.tail (ascending n) in
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "too few for a median tail" None (tail 19);
  (* 20 samples: the median has exactly ten beyond it. *)
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "p50 of 20" (Some (50.0, 10.0)) (tail 20);
  (* 100 samples: p90 leaves ten beyond, p99 only one. *)
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "p90 of 100" (Some (90.0, 90.0)) (tail 100);
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "p99 of 1000" (Some (99.0, 990.0)) (tail 1000);
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "p99 of 9999 has only nine beyond the p99.9 rank" (Some (99.0, 9900.0))
    (tail 9999);
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "p99.9 of 10000" (Some (99.9, 9990.0)) (tail 10000)

let at s = Chronon.add_seconds Workload.evolution_base s

let test_model_updates () =
  let r = Model.create () in
  Model.append r ~now:(at 1) ~id:7 ~amount:10 ~seq:0 ~str:"x";
  Alcotest.(check (pair int int)) "replace" (1, 2)
    (Model.replace r ~now:(at 5) 7 (fun v -> (v.amount, v.seq + 1)));
  let cur = Model.current r ~now:(at 6) 7 in
  Alcotest.(check (list int)) "current seq" [ 1 ] (List.map (fun v -> v.Model.seq) cur);
  (* As of before the replace, the original version alone was stored. *)
  Alcotest.(check (list int)) "as of 3" [ 0 ]
    (List.map (fun v -> v.Model.seq) (Model.state_at r (at 3) 7));
  (* Now: the terminated old version plus the new one. *)
  Alcotest.(check int) "versions now" 2 (List.length (Model.state_at r (at 6) 7));
  Alcotest.(check (pair int int)) "delete" (1, 1) (Model.delete r ~now:(at 9) 7);
  Alcotest.(check int) "nothing current" 0 (List.length (Model.current r ~now:(at 10) 7));
  Alcotest.(check (pair int int)) "replace of a deleted key" (0, 0)
    (Model.replace r ~now:(at 11) 7 (fun v -> (v.amount, v.seq)));
  Alcotest.(check int) "stored versions" 4 (Model.version_count r)

let version id amount vfrom vto =
  {
    Model.id; amount; seq = 0; str = "";
    vfrom = at vfrom; vto = (if vto < 0 then Chronon.forever else at vto);
    tstart = at 0; tstop = Chronon.forever;
  }

let row c s f e =
  [ Value.Int c; Value.Int s; Value.Time (at f);
    Value.Time (if e < 0 then Chronon.forever else at e) ]

let rows = Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<rows>") ( = )

let test_temporal_count_sum () =
  Alcotest.check rows "overlapping"
    [ row 1 10 1 3; row 2 15 3 5; row 1 5 5 8 ]
    (Model.temporal_count_sum [ version 1 10 1 5; version 2 5 3 8 ]);
  (* Adjacent versions of one value coalesce; a gap yields no row. *)
  Alcotest.check rows "coalesced with a gap"
    [ row 1 10 1 6; row 1 10 8 (-1) ]
    (Model.temporal_count_sum
       [ version 1 10 1 3; version 1 10 3 6; version 1 10 8 (-1) ])

(* The evolution model agrees with the engine's stored relations. *)
let test_evolution_matches_engine () =
  let kind = Workload.Temporal in
  let w = Workload.build ~kind ~loading:100 ~seed:5 () in
  let rounds = 2 in
  for k = 1 to rounds do
    Tdb_benchkit.Evolve.uniform_round w ~round:k
  done;
  let schema = Workload.schema_for kind in
  let load which = Model.load schema (Workload.tuples_for ~kind ~seed:5 ~which schema) in
  let h = load `H and i = load `I in
  let now = Model.evolve ~base:Workload.evolution_base ~rounds h i in
  Alcotest.(check bool) "clock" true
    (Chronon.equal now (Tdb_core.Database.now w.Workload.db));
  let stored rel =
    let acc = ref [] in
    Tdb_storage.Relation_file.scan rel (fun _ tu -> acc := Array.to_list tu :: !acc);
    Model.canonical !acc
  in
  Alcotest.check rows "h" (Model.stored_rows schema h) (stored (Workload.h_rel w));
  Alcotest.check rows "i" (Model.stored_rows schema i) (stored (Workload.i_rel w))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "tail rule" `Quick test_tail;
        ] );
      ( "model",
        [
          Alcotest.test_case "updates" `Quick test_model_updates;
          Alcotest.test_case "temporal count and sum" `Quick test_temporal_count_sum;
          Alcotest.test_case "evolution matches engine" `Quick
            test_evolution_matches_engine;
        ] );
    ]
