(* The end-to-end and per-layer benchmark.

   One process, one client, one domain.  A run builds its workload's
   database (several times, to time set-up), executes a fixed number of
   rounds of statements through the engine's public API, checks every
   answer against a model built apart from the engine, and prints one JSON
   object as its last line of output.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] the object carries the end-to-end metrics; with
   [--trace 1] the same rounds run with the benchmark timing each layer
   from outside and the object carries the per-layer metrics.  See
   README.md for the workloads, the metrics and the reference figures. *)

module Engine = Tdb_core.Engine
module Database = Tdb_core.Database
module Session = Tdb_session.Session
module Db_instance = Tdb_session.Db_instance
module Parser = Tdb_tquel.Parser
module Semck = Tdb_tquel.Semck
module Ast = Tdb_tquel.Ast
module Executor = Tdb_query.Executor
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Cursor = Tdb_storage.Cursor
module Crc32 = Tdb_storage.Crc32
module Time_fence = Tdb_storage.Time_fence
module Page = Tdb_storage.Page
module Metric = Tdb_obs.Metric
module Trace = Tdb_obs.Trace
module Statement_log = Tdb_obs.Statement_log
module Workload = Tdb_benchkit.Workload
module Chronon = Tdb_time.Chronon
module Clock = Tdb_time.Clock
module Stats = Tdb_perfbench.Stats
module Model = Tdb_perfbench.Model
module Samples = Stats.Samples

(* --- command line ----------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload temporal-queries|keyed-sessions|durable-writes \
     --seed N --seconds S --trace 0|1";
  exit 2

let args =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
        Hashtbl.replace tbl (String.sub flag 2 (String.length flag - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg name =
  match Hashtbl.find_opt args name with Some v -> v | None -> usage ()

let int_arg name =
  match int_of_string_opt (arg name) with Some n -> n | None -> usage ()

let workload_name = arg "workload"
let seed = int_arg "seed"
let seconds = int_arg "seconds"

let traced =
  match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()

let () = if seconds < 1 then usage ()

(* Everything the benchmark writes lives under this directory of the
   checkout it runs from. *)
let out_dir = ".perfbench_out"

(* --- configuration ---------------------------------------------------- *)

(* Pinned in-process, whatever TDB_WORKERS, TDB_TJOIN, TDB_PAR_MIN_PAGES,
   TDB_JOURNAL or TDB_LOG* say: one worker, temporal join on, pruning on,
   the default admission floor, the statement log off, metrics on, span
   tracing off (analysis turns it on per statement). *)
let pin_config () =
  Engine.set_parallelism (Some 1);
  Executor.set_temporal_join (Some true);
  Executor.set_parallel_min_pages (Some 128);
  Time_fence.set_pruning true;
  Statement_log.set None;
  Metric.set_enabled true;
  Trace.set_enabled false

let print_config () =
  Printf.printf
    "config: workload=%s seed=%d seconds=%d trace=%d workers=%d tjoin=%b \
     pruning=%b par_min_pages=%d statement_log=%b metrics=%b\n%!"
    workload_name seed seconds
    (if traced then 1 else 0)
    (Engine.parallelism ())
    (Executor.temporal_join_enabled ())
    (Time_fence.pruning_enabled ())
    (Executor.parallel_min_pages ())
    (Statement_log.enabled ()) (Metric.enabled ())

(* --- clocks and counters ---------------------------------------------- *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let counter ?labels name = Metric.counter ?labels name
let c_reads = counter "tdb_io_page_reads_total"
let c_wev = counter ~labels:[ ("kind", "eviction") ] "tdb_io_page_writes_total"
let c_wsy = counter ~labels:[ ("kind", "sync") ] "tdb_io_page_writes_total"
let c_skipped = counter "tdb_prune_pages_skipped_total"
let c_checks = counter "tdb_prune_fence_checks_total"
let c_hits = counter "tdb_pool_hits_total"
let c_misses = counter "tdb_pool_misses_total"
let c_pairs = counter "tdb_tjoin_candidate_pairs_total"
let c_jbytes = counter "tdb_journal_bytes_total"
let c_jrecords = counter "tdb_journal_records_total"
let c_jfsyncs = counter "tdb_journal_fsyncs_total"
let pages () = Metric.count c_reads + Metric.count c_wev + Metric.count c_wsy

(* Chain-length histogram totals, read from the metrics dump. *)
let chain_totals () =
  List.fold_left
    (fun (n, s) (r : Metric.record) ->
      match (r.name, r.value) with
      | "tdb_storage_chain_length_pages_count", Metric.Int c -> (n +. float c, s)
      | "tdb_storage_chain_length_pages_sum", Metric.Float v -> (n, s +. v)
      | _ -> (n, s))
    (0.0, 0.0) (Metric.dump ())

(* --- operations and checking ------------------------------------------ *)

type op = {
  kind : string;  (* statement kind: the unit of read_ms_geomean *)
  read : bool;
  src : string;
  prepare : unit -> Engine.outcome -> bool;
      (* applies the statement to the model (writes) and returns the
         check of the engine's outcome *)
}

let attempted = ref 0
let failed = ref 0

(* A statement that errors and an answer that differs from the model both
   count as failed operations, and either makes the run incorrect. *)
let fail_op ~kind ~src why =
  incr failed;
  if !failed <= 5 then Printf.eprintf "failed %s: %s\n  %s\n%!" kind why src

let mismatch ~kind ~src why = fail_op ~kind ~src ("mismatch: " ^ why)

let expect_rows expected = function
  | Engine.Rows { tuples; _ } -> Model.canonical_tuples tuples = expected
  | _ -> false

let expect_modified (m, i) = function
  | Engine.Modified { matched; inserted; _ } -> matched = m && inserted = i
  | _ -> false

(* How statements reach the engine: directly, or through a session. *)
type target = {
  run : string -> (Engine.outcome, string) result;
  exec : Ast.statement -> (Engine.outcome, string) result;
  analyze : Ast.statement -> (Engine.analysis, string) result;
  semck_env : Ast.statement -> Semck.env;
  sources : unit -> Executor.source list;
  instance : Db_instance.t Lazy.t;
}

let engine_target db =
  {
    run = Engine.execute_one db;
    exec = Engine.execute_statement db;
    analyze = Engine.analyze_statement db;
    semck_env = (fun _ -> Database.semck_env db);
    sources =
      (fun () ->
        List.filter_map
          (fun (var, rel) ->
            Option.map
              (fun rel -> { Executor.var; rel })
              (Database.find_relation db rel))
          (Database.ranges db));
    instance = lazy (Db_instance.of_database db);
  }

let session_target inst =
  let s = Session.open_ ~name:"bench" inst in
  let db = Db_instance.database inst in
  {
    run = Session.execute_one s;
    exec = Session.execute_statement s;
    analyze = Session.analyze_statement s;
    semck_env =
      (fun stmt ->
        if Engine.read_only stmt then Session.semck_env_of (Db_instance.commit inst)
        else Database.semck_env db);
    sources = (fun () -> Session.sources_of (Db_instance.commit inst));
    instance = lazy inst;
  }

(* --- workloads -------------------------------------------------------- *)

type built = {
  db : Database.t;
  target : target;
  round : Random.State.t -> op list;
  setup_writes : float list;  (* write-statement latencies during set-up *)
  relations : unit -> Relation_file.t list;
  user_bytes : unit -> float;  (* user attribute bytes over all versions *)
  finish : unit -> Database.t;
      (* end-of-run checks; returns the database to keep reachable *)
  dir : string;  (* where scratch files for device probes go *)
}

let user_record_bytes = 4 + 4 + 4 + 96
let paper_base = Workload.evolution_base

let check_outcome ~kind ~src res =
  match res with Ok o -> o | Error e -> Tdb_error.internal "%s: %s\n%s" kind e src

let rm_rf dir =
  if Sys.file_exists dir then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let stored_rows rel =
  let rows = ref [] in
  Relation_file.scan rel (fun _ tu -> rows := Array.to_list tu :: !rows);
  Model.canonical !rows

(* One whole-state comparison, counted as one operation. *)
let check_state ~what rel model =
  incr attempted;
  let schema = Relation_file.schema rel in
  if stored_rows rel <> Model.stored_rows schema model then
    mismatch ~kind:"state" ~src:what "stored versions differ from the model"

(* Builds [setups] times, each from a collected heap, and keeps the last
   build.  [release] frees a build's outside resources before the next. *)
let timed_setups ~release setups build =
  let s = Samples.create () and last = ref None in
  for _ = 1 to setups do
    Option.iter release !last;
    last := None;
    Gc.full_major ();
    let r, dt = time build in
    Samples.add s dt;
    last := Some r
  done;
  (s, Option.get !last)

let shuffle rng a =
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let x = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- x
  done;
  a

(* temporal-queries: the paper's temporal database at 100% loading,
   evolved to update count 15; Q01-Q12, Q09c and a coalesced temporal
   aggregate, read-only, each round in a fresh seeded order. *)
module Temporal_queries = struct
  let uc = 15
  let data_seed = 850331

  let q09c =
    {|retrieve (h.id, i.id, i.amount) where h.amount = i.amount when h overlap i and i overlap "now"|}

  let agg = "retrieve coalesced (c = count(h.id), s = sum(h.amount))"

  let statements =
    List.filter_map
      (fun q ->
        Option.map
          (fun src -> (Tdb_benchkit.Paper_queries.name q, src))
          (Tdb_benchkit.Paper_queries.text q Workload.Temporal))
      Tdb_benchkit.Paper_queries.all
    @ [ ("Q09c", q09c); ("AGG", agg) ]

  (* The paper's data are fixed (they are the paper's database); the seed
     orders the statements of each round.  Each update-round statement's
     latency goes to [writes]. *)
  let build ~writes () =
    let w =
      Workload.build ~kind:Workload.Temporal ~loading:100 ~seed:data_seed ()
    in
    let db = w.Workload.db in
    for k = 1 to uc do
      Clock.set (Database.clock db)
        (Chronon.add_seconds paper_base (k * Model.day));
      List.iter
        (fun src ->
          let res, dt = time (fun () -> Engine.execute_one db src) in
          ignore (check_outcome ~kind:"update round" ~src res);
          writes := dt :: !writes)
        [ "replace h (seq = h.seq + 1)"; "replace i (seq = i.seq + 1)" ]
    done;
    w

  let make ~setups =
    let schema = Workload.schema_for Workload.Temporal in
    let tuples which =
      Workload.tuples_for ~kind:Workload.Temporal ~seed:data_seed ~which schema
    in
    let mh = Model.load schema (tuples `H) and mi = Model.load schema (tuples `I) in
    let now = Model.evolve ~base:paper_base ~rounds:uc mh mi in
    let writes = ref [] in
    let setup_s, w = timed_setups ~release:ignore setups (build ~writes) in
    let db = w.Workload.db in
    let h = Workload.h_rel w and i = Workload.i_rel w in
    incr attempted;
    if not (Chronon.equal (Database.now db) now) then
      mismatch ~kind:"clock" ~src:"" "database clock differs from the model";
    check_state ~what:"h after evolution" h mh;
    check_state ~what:"i after evolution" i mi;
    let ops =
      List.map
        (fun (kind, src) ->
          let expected = Model.paper_answer ~now ~h:mh ~i:mi kind in
          { kind; read = true; src; prepare = (fun () -> expect_rows expected) })
        statements
      |> Array.of_list
    in
    let versions = float (Model.version_count mh + Model.version_count mi) in
    ( setup_s,
      {
        db;
        target = engine_target db;
        round = (fun rng -> Array.to_list (shuffle rng (Array.copy ops)));
        setup_writes = !writes;
        relations = (fun () -> [ h; i ]);
        user_bytes = (fun () -> versions *. float user_record_bytes);
        finish = (fun () -> db);
        dir = out_dir;
      } )
end

(* Keyed statements over relations shaped like the paper's (id, amount,
   seq, string), shared by keyed-sessions and durable-writes. *)
module Keyed = struct
  type rel = {
    var : string;  (* range variable *)
    name : string;  (* relation name, for appends *)
    model : Model.rel;
    mutable next_id : int;  (* ids [0, next_id) have been created *)
    mutable live : int array;  (* ids with a current version *)
    mutable nlive : int;
  }

  let make_rel ~var ~name model ~n =
    { var; name; model; next_id = n; live = Array.init n Fun.id; nlive = n }

  let add_live r id =
    if r.nlive = Array.length r.live then begin
      let bigger = Array.make (2 * r.nlive) 0 in
      Array.blit r.live 0 bigger 0 r.nlive;
      r.live <- bigger
    end;
    r.live.(r.nlive) <- id;
    r.nlive <- r.nlive + 1

  let pick_live rng r = r.live.(Random.State.int rng r.nlive)

  let remove_live r id =
    let rec find k = if r.live.(k) = id then k else find (k + 1) in
    let k = find 0 in
    r.live.(k) <- r.live.(r.nlive - 1);
    r.nlive <- r.nlive - 1

  (* The model clock: every write advances it by one second, exactly as
     the engine advances the database clock. *)
  type clock = { mutable now : Chronon.t }

  let tick c =
    c.now <- Chronon.add_seconds c.now 1;
    c.now

  let t = Model.t
  let n = Model.n

  let current_read ?(kind = "current") clock r id =
    {
      kind = kind ^ "_" ^ r.var;
      read = true;
      src =
        Printf.sprintf
          {|retrieve (%s.id, %s.seq, %s.amount) where %s.id = %d when %s overlap "now"|}
          r.var r.var r.var r.var id r.var;
      prepare =
        (fun () ->
          let rows =
            List.map
              (fun (v : Model.version) ->
                [ n v.id; n v.seq; n v.amount; t v.vfrom; t v.vto ])
              (Model.current r.model ~now:clock.now id)
          in
          expect_rows (Model.canonical rows));
    }

  let version_row (v : Model.version) = [ n v.id; n v.seq; t v.vfrom; t v.vto ]

  let asof_read r id at =
    {
      kind = "asof_" ^ r.var;
      read = true;
      src =
        Printf.sprintf {|retrieve (%s.id, %s.seq) where %s.id = %d as of "%s"|}
          r.var r.var r.var id (Chronon.to_string at);
      prepare =
        (fun () ->
          expect_rows
            (Model.canonical
               (List.map version_row (Model.state_at r.model at id))));
    }

  let version_scan clock r id =
    {
      kind = "versions_" ^ r.var;
      read = true;
      src = Printf.sprintf {|retrieve (%s.id, %s.seq) where %s.id = %d|} r.var r.var r.var id;
      prepare =
        (fun () ->
          expect_rows
            (Model.canonical
               (List.map version_row (Model.state_at r.model clock.now id))));
    }

  let replace clock r id =
    {
      kind = "replace";
      read = false;
      src =
        Printf.sprintf "replace %s (seq = %s.seq + 1, amount = %s.amount + 7) where %s.id = %d"
          r.var r.var r.var r.var id;
      prepare =
        (fun () ->
          let now = tick clock in
          expect_modified
            (Model.replace r.model ~now id (fun v -> (v.amount + 7, v.seq + 1))));
    }

  let delete clock r id =
    remove_live r id;
    {
      kind = "delete";
      read = false;
      src = Printf.sprintf "delete %s where %s.id = %d" r.var r.var id;
      prepare =
        (fun () -> expect_modified (Model.delete r.model ~now:(tick clock) id));
    }

  let append rng clock r =
    let id = r.next_id in
    r.next_id <- id + 1;
    add_live r id;
    let amount = Random.State.int rng 100_000 in
    let str = String.init 96 (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
    {
      kind = "append";
      read = false;
      src =
        Printf.sprintf
          {|append to %s (id = %d, amount = %d, seq = 0, string = "%s")|}
          r.name id amount str;
      prepare =
        (fun () ->
          Model.append r.model ~now:(tick clock) ~id ~amount ~seq:0 ~str;
          expect_modified (1, 1));
    }

  (* A random instant between the earliest load stamp and now. *)
  let random_instant rng clock =
    let lo = Chronon.to_seconds (Chronon.parse_exn "1/1/80") in
    let hi = Chronon.to_seconds clock.now in
    Chronon.of_seconds (lo + Random.State.int rng (hi - lo + 1))

  (* One round: [n] statements of each [(n, make)] kind, in seeded order.
     Every round holds the same kinds in the same numbers, so the state a
     run reaches after a round does not depend on the seed's luck in
     drawing kinds; only keys and instants are drawn. *)
  let deal rng choices =
    let makes = List.concat_map (fun (n, f) -> List.init n (fun _ -> f)) choices in
    Array.to_list (Array.map (fun f -> f ()) (shuffle rng (Array.of_list makes)))
end

(* keyed-sessions: a scale-10 temporal database (10,240 rows per
   relation, evolved 2 rounds) driven through a session. *)
module Keyed_sessions = struct
  let scale = 10
  let rounds_evolved = 2
  let build () =
    let w = Workload.build ~scale ~kind:Workload.Temporal ~loading:100 ~seed () in
    for round = 1 to rounds_evolved do
      Tdb_benchkit.Evolve.uniform_round w ~round
    done;
    w

  let make ~setups =
    let setup_s, w = timed_setups ~release:ignore setups build in
    let db = w.Workload.db in
    let schema = Workload.schema_for Workload.Temporal in
    let tuples which =
      Workload.tuples_for ~scale ~kind:Workload.Temporal ~seed ~which schema
    in
    let mh = Model.load schema (tuples `H) and mi = Model.load schema (tuples `I) in
    let now = Model.evolve ~base:paper_base ~rounds:rounds_evolved mh mi in
    let n = Workload.n_tuples * scale in
    let h = Keyed.make_rel ~var:"h" ~name:w.Workload.h_name mh ~n in
    let i = Keyed.make_rel ~var:"i" ~name:w.Workload.i_name mi ~n in
    let clock = { Keyed.now } in
    let inst = Db_instance.of_database db in
    let target = session_target inst in
    let any_id rng (r : Keyed.rel) = Random.State.int rng r.next_id in
    (* One of the 16 ids created last: once appends begin, the ids past
       the load's last key. *)
    let recent_id rng (r : Keyed.rel) = r.next_id - 1 - Random.State.int rng 16 in
    let round rng =
      Keyed.deal rng
        (List.concat_map
           (fun r ->
             [
               (24, fun () -> Keyed.current_read clock r (any_id rng r));
               (2, fun () -> Keyed.current_read ~kind:"recent" clock r (recent_id rng r));
               ( 8,
                 fun () -> Keyed.asof_read r (any_id rng r) (Keyed.random_instant rng clock) );
               (8, fun () -> Keyed.version_scan clock r (any_id rng r));
               (6, fun () -> Keyed.replace clock r (Keyed.pick_live rng r));
               (3, fun () -> Keyed.append rng clock r);
             ])
           [ h; i ])
    in
    let hrel = Workload.h_rel w and irel = Workload.i_rel w in
    ( setup_s,
      {
        db;
        target;
        round;
        setup_writes = [];
        relations = (fun () -> [ hrel; irel ]);
        user_bytes =
          (fun () ->
            float (Model.version_count mh + Model.version_count mi)
            *. float user_record_bytes);
        finish =
          (fun () ->
            check_state ~what:"h after the run" hrel mh;
            check_state ~what:"i after the run" irel mi;
            db);
        dir = out_dir;
      } )
end

(* durable-writes: a file-backed temporal relation of 10,240 rows in a
   fresh directory, journal on; mostly keyed writes, keyed current reads
   between them; the run ends by abandoning the process state and
   reopening the directory. *)
module Durable_writes = struct
  let scale = 10
  let rel_name = "acct"

  (* Checkpoint after every [checkpoint_rounds] rounds, never after the
     last one: reopening replays at most that many rounds. *)
  let checkpoint_rounds = 25

  let ok what = function Ok v -> v | Error e -> Tdb_error.internal "%s: %s" what e
  let schema = Workload.schema_for Workload.Temporal

  let build ~dir () =
    rm_rf dir;
    let db = ok "create" (Database.create ~dir ~journal:true ~start:paper_base ()) in
    let rel = ok "create relation" (Database.create_relation db ~name:rel_name schema) in
    List.iter
      (fun tu -> ignore (Relation_file.insert rel tu))
      (Workload.tuples_for ~scale ~kind:Workload.Temporal ~seed ~which:`H schema);
    ok "modify"
      (Database.modify_relation db rel_name
         (Relation_file.Hash { key_attr = 0; fillfactor = 100 }));
    ok "range" (Database.set_range db ~var:"a" ~rel:rel_name);
    Clock.set (Database.clock db) paper_base;
    Database.sync db;
    db

  let replay_s = ref 0.0

  let make ~setups ~rounds =
    let dir = Filename.concat out_dir (Printf.sprintf "dw-%d" (Unix.getpid ())) in
    let setup_s, db =
      timed_setups ~release:(fun db -> Database.close db; rm_rf dir) setups (build ~dir)
    in
    let model =
      Model.load schema
        (Workload.tuples_for ~scale ~kind:Workload.Temporal ~seed ~which:`H schema)
    in
    let n = Workload.n_tuples * scale in
    let a = Keyed.make_rel ~var:"a" ~name:rel_name model ~n in
    let clock = { Keyed.now = paper_base } in
    let rounds_done = ref 0 in
    let round rng =
      (* The checkpoint policy runs between rounds, outside any timing. *)
      if !rounds_done > 0 && !rounds_done mod checkpoint_rounds = 0
         && !rounds_done < rounds
      then Database.sync db;
      incr rounds_done;
      Keyed.deal rng
        [
          (8, fun () -> Keyed.replace clock a (Keyed.pick_live rng a));
          (3, fun () -> Keyed.append rng clock a);
          (2, fun () -> Keyed.delete clock a (Keyed.pick_live rng a));
          (7, fun () -> Keyed.current_read clock a (Keyed.pick_live rng a));
        ]
    in
    let reopened = ref db in
    at_exit (fun () -> rm_rf dir);
    let finish () =
      Database.abandon db;
      let db', dt = time (fun () -> ok "reopen" (Database.create ~dir ~journal:true ())) in
      reopened := db';
      replay_s := dt;
      let rel = Option.get (Database.find_relation db' rel_name) in
      check_state ~what:"acct after abandon and reopen" rel model;
      db'
    in
    ( setup_s,
      {
        db;
        target = engine_target db;
        round;
        setup_writes = [];
        relations =
          (fun () -> Option.to_list (Database.find_relation !reopened rel_name));
        user_bytes =
          (fun () -> float (Model.version_count model) *. float user_record_bytes);
        finish;
        dir;
      } )
end

(* --- running ---------------------------------------------------------- *)

(* A run executes a fixed number of rounds, sized so that it takes about
   [--seconds] on the reference host (README.md).  Fixed work keeps the
   append-only databases in the same state at the same point of every
   run, so exact counts repeat exactly and latencies are comparable. *)
let rounds_per_10s = function
  | "temporal-queries" -> 8
  | "keyed-sessions" -> 750
  | "durable-writes" -> 900
  | _ -> usage ()

let rounds = max 2 (rounds_per_10s workload_name * seconds / 10)
(* Set-ups per run; set-up time is their median.  The traced run reports
   no set-up time and builds once. *)
let setups =
  if traced then 1 else if workload_name = "durable-writes" then 7 else 3

let make () =
  let setup_s, b =
    match workload_name with
    | "temporal-queries" -> Temporal_queries.make ~setups
    | "keyed-sessions" -> Keyed_sessions.make ~setups
    | "durable-writes" -> Durable_writes.make ~setups ~rounds
    | _ -> usage ()
  in
  Printf.printf "config: journal=%b\n%!" (Database.journaling b.db);
  (setup_s, b)

let rng () =
  Random.State.make [| seed; Hashtbl.hash workload_name |]

(* Per-kind latency samples, kinds in first-seen order. *)
type kinds = { tbl : (string, Samples.t) Hashtbl.t; mutable order : string list }

let kinds () = { tbl = Hashtbl.create 16; order = [] }

let kind_samples k name =
  match Hashtbl.find_opt k.tbl name with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace k.tbl name s;
      k.order <- k.order @ [ name ];
      s

let check op check res =
  match res with
  | Error e -> fail_op ~kind:op.kind ~src:op.src e
  | Ok o -> if not (check o) then mismatch ~kind:op.kind ~src:op.src "wrong answer"

(* Executes one round untraced.  [on_stmt] gets the latency of each
   statement that completed without an error. *)
let run_round b rng ~on_stmt =
  List.iter
    (fun op ->
      let chk = op.prepare () in
      let res, dt = time (fun () -> b.target.run op.src) in
      incr attempted;
      if Result.is_ok res then on_stmt op dt;
      check op chk res)
    (b.round rng)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* The highest percentile with at least ten samples beyond it, from forty
   samples up; below that the median stands alone. *)
let print_tail what samples =
  let a = Samples.to_array samples in
  match Stats.tail a with
  | Some (p, v) when Array.length a >= 40 ->
      Printf.printf "%s tail: p%g over %d samples = %.4f ms\n" what p
        (Array.length a) (v *. 1000.0)
  | _ -> Printf.printf "%s tail: not reported, %d samples\n" what (Array.length a)

let file_bytes b =
  float
    (List.fold_left (fun acc r -> acc + Relation_file.npages r) 0 (b.relations ())
    * Page.size)

let live_heap_mb keep =
  Gc.compact ();
  let words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  float (words * (Sys.word_size / 8)) /. 1e6

let end_to_end () =
  let setup_s, b = make () in
  let rng = rng () in
  let by_kind = kinds () in
  let read_kinds = Hashtbl.create 8 in
  let reads = Samples.create () and writes = Samples.create () in
  List.iter (Samples.add writes) b.setup_writes;
  let round_rates = Samples.create () in
  let stmts = ref 0 in
  let p0 = pages () in
  for _ = 1 to rounds do
    let busy = ref 0.0 and n = ref 0 in
    run_round b rng ~on_stmt:(fun op dt ->
        incr n;
        busy := !busy +. dt;
        Samples.add (kind_samples by_kind op.kind) dt;
        if op.read then Hashtbl.replace read_kinds op.kind ();
        Samples.add (if op.read then reads else writes) dt);
    stmts := !stmts + !n;
    Samples.add round_rates (float !n /. !busy)
  done;
  let pages_per_stmt = float (pages () - p0) /. float !stmts in
  let kind_medians =
    List.map
      (fun k ->
        let s = Hashtbl.find by_kind.tbl k in
        let med = Stats.median (Samples.to_array s) *. 1000.0 in
        Printf.printf "kind %-12s %7d samples, median %.4f ms, mean %.4f ms\n" k
          (Samples.length s) med
          (Samples.sum s /. float (Samples.length s) *. 1000.0);
        (k, med))
      by_kind.order
  in
  let read_medians =
    Array.of_list
      (List.filter_map
         (fun (k, med) -> if Hashtbl.mem read_kinds k then Some med else None)
         kind_medians)
  in
  (* Tails are printed, not reported: they do not hold steady on a shared
     host (README.md). *)
  print_tail "read" reads;
  print_tail "write" writes;
  let db = b.finish () in
  let bytes_ratio = file_bytes b /. b.user_bytes () in
  Printf.printf "rounds %d, statements %d (%d reads, %d writes)\n" rounds !stmts
    (Samples.length reads) (Samples.length writes);
  let metrics =
    [
      m "setup_s" "s" (Stats.median (Samples.to_array setup_s));
      m "stmts_per_s" "1/s" (Stats.median (Samples.to_array round_rates));
      m "read_ms_geomean" "ms" (Stats.geomean read_medians);
      m "write_ms_p50" "ms" (Stats.median (Samples.to_array writes) *. 1000.0);
      m "pages_per_stmt" "pages" pages_per_stmt;
      m "bytes_per_user_byte" "ratio" bytes_ratio;
    ]
  in
  (metrics, db)

(* --- the traced run --------------------------------------------------- *)

(* The benchmark's own spans: one per call into a layer, children of the
   statement's "stmt" span, kept in memory and written out at the end.
   Only the first [max_spans] are kept, which bounds the file and the
   memory they hold; the rest are counted. *)
type span = { sid : int; sname : string; start : float; stop : float; parent : string }

let spans : span list ref = ref []
let kept = ref 0
let dropped = ref 0
let max_spans = 50_000

let record s =
  if !kept < max_spans then begin
    spans := s :: !spans;
    incr kept
  end
  else incr dropped

let span sid name f =
  let t0 = now_s () in
  let r = f () in
  let t1 = now_s () in
  record { sid; sname = name; start = t0; stop = t1; parent = "stmt" };
  (r, t1 -. t0)

let write_spans () =
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s.jsonl" workload_name) in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"stmt\": %d, \"name\": %S, \"start\": %.9f, \"end\": %.9f, \"parent\": %s}\n"
        s.sid s.sname s.start s.stop
        (if s.parent = "" then "null" else Printf.sprintf "%S" s.parent))
    (List.rev !spans);
  close_out oc;
  Printf.printf "spans: %d written to %s, %d more not kept\n" !kept path !dropped

(* Operator kinds of the executed-plan tree, by span label. *)
let operator_kinds =
  [ "scan"; "probe"; "join"; "filter"; "emit"; "agg"; "detach"; "retrieve";
    "qualify"; "apply"; "update" ]

let classify name =
  let has sub =
    let ls = String.length sub and ln = String.length name in
    let rec at k = k + ls <= ln && (String.sub name k ls = sub || at (k + 1)) in
    at 0
  in
  let starts p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if starts "retrieve" then "retrieve"
  else if starts "detach(" then "detach"
  else if starts "qualify(" then "qualify"
  else if name = "apply" then "apply"
  else if name = "replace" || name = "delete" || name = "append" then "update"
  else if starts "probe(" then "probe"
  else if starts "tjoin[" || starts "nest(" then "join"
  else if starts "filter(" then "filter"
  else if starts "emit" then "emit"
  else if name = "temporal-agg" || name = "coalesce" || starts "agg-scan(" then "agg"
  else if has "scan(" || has "keyed(" then "scan"
  else "retrieve"

(* Self time per operator kind.  Branch spans re-entered per batch do not
   always nest in time (a temporal aggregate's finalisation hangs under
   the emit stage but runs after it), so a child is charged at the larger
   of its own elapsed time and its subtree's. *)
let rec subtree_time (n : Trace.node) =
  let kids = List.fold_left (fun acc c -> acc +. subtree_time c) 0.0 (Trace.children n) in
  Float.max n.elapsed kids

let rec self_times acc (n : Trace.node) =
  let kids = List.fold_left (fun s c -> s +. subtree_time c) 0.0 (Trace.children n) in
  let k = classify n.name in
  Hashtbl.replace acc k
    (Option.value (Hashtbl.find_opt acc k) ~default:0.0 +. Float.max 0.0 (n.elapsed -. kids));
  List.iter (self_times acc) (Trace.children n)

let rec examined (n : Trace.node) =
  let own =
    match classify n.name with
    | "scan" | "probe" | "join" | "detach" -> n.tuples
    | _ -> 0
  in
  List.fold_left (fun acc c -> acc + examined c) own (Trace.children n)

let result_rows = function
  | Engine.Rows { tuples; _ } -> List.length tuples
  | Engine.Stored { count; _ } -> count
  | Engine.Modified { matched; _ } -> matched
  | Engine.Ack _ -> 0

let median_of s = if Samples.length s = 0 then 0.0 else Stats.median (Samples.to_array s)

(* A cold full drain of each relation: pages per second through the
   storage scan path, then records per second through the decoder. *)
let scan_probe rels =
  let scan = Samples.create () and decode = Samples.create () in
  for _ = 1 to 3 do
    let scan_s = ref 0.0 and pages = ref 0 and dec_s = ref 0.0 and records = ref 0 in
    List.iter
      (fun rel ->
        Buffer_pool.invalidate (Relation_file.pool rel);
        let raw = ref [] in
        let (), dt =
          time (fun () ->
              Cursor.iter (Relation_file.cursor rel Relation_file.Full_scan)
                (fun _ b -> raw := b :: !raw))
        in
        scan_s := !scan_s +. dt;
        pages := !pages + Relation_file.npages rel;
        let (), dd = time (fun () -> List.iter (fun b -> ignore (Relation_file.decode rel b)) !raw) in
        dec_s := !dec_s +. dd;
        records := !records + List.length !raw)
      rels;
    Samples.add scan (!scan_s /. float (max 1 !pages));
    Samples.add decode (!dec_s /. float (max 1 !records))
  done;
  (median_of scan *. 1e6, median_of decode *. 1e6)

let crc_probe () =
  let page = Bytes.init Page.size (fun k -> Char.chr ((k * 131) land 255)) in
  let per = 2000 in
  let s = Samples.create () in
  for _ = 1 to 7 do
    let (), dt = time (fun () -> for _ = 1 to per do ignore (Crc32.digest page) done) in
    Samples.add s (dt /. float per)
  done;
  median_of s *. 1e6

(* An fsync of a scratch file of [size] bytes in [dir]. *)
let fsync_probe ~dir ~size =
  let path = Filename.concat dir "fsync-probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = Bytes.make size 'f' in
  let s = Samples.create () in
  for _ = 1 to 21 do
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    ignore (Unix.write fd buf 0 size);
    let (), dt = time (fun () -> Unix.fsync fd) in
    Samples.add s dt
  done;
  Unix.close fd;
  Sys.remove path;
  median_of s *. 1e6

(* In-memory workloads have no journal: their replay figure comes from a
   one-statement probe database, so it stays a measured replay that no
   in-memory change can move. *)
let replay_probe () =
  let dir = Filename.concat out_dir (Printf.sprintf "replay-%d" (Unix.getpid ())) in
  rm_rf dir;
  let ok = Durable_writes.ok in
  let db = ok "probe" (Database.create ~dir ~journal:true ()) in
  ignore (ok "probe" (Engine.execute db "create persistent interval probe (id = i4, amount = i4)"));
  ignore (ok "probe" (Engine.execute db "range of p is probe"));
  Database.sync db;
  ignore (ok "probe" (Engine.execute db "append to probe (id = 1, amount = 2)"));
  Database.abandon db;
  let db', dt = time (fun () -> ok "probe reopen" (Database.create ~dir ~journal:true ())) in
  Database.close db';
  rm_rf dir;
  dt

let per_layer () =
  let _setup_s, b = make () in
  let rng = rng () in
  let half = rounds / 2 in
  (* Phase A, untraced: allocation and collections around each call into
     the engine only.  The round's statement text and the model's update
     are made before the call, the check after it. *)
  let minor_words = ref 0.0 and majors = ref 0 and stmts_a = ref 0 in
  for _ = 1 to half do
    List.iter
      (fun op ->
        let chk = op.prepare () in
        let c0 = (Gc.quick_stat ()).Gc.major_collections in
        let w0 = Gc.minor_words () in
        let res = b.target.run op.src in
        let w1 = Gc.minor_words () in
        let c1 = (Gc.quick_stat ()).Gc.major_collections in
        minor_words := !minor_words +. (w1 -. w0);
        majors := !majors + (c1 - c0);
        incr attempted;
        incr stmts_a;
        check op chk res)
      (b.round rng)
  done;
  (* Phase B, traced: every call into a layer timed from outside. *)
  let parse = Samples.create () and semck = Samples.create () in
  let plan = Samples.create () and views = Samples.create () in
  let publish = Samples.create () in
  let self = Hashtbl.create 16 in
  let traced_wall = ref 0.0 and dup_traced = ref 0.0 and dup_plain = ref 0.0 in
  let n_stmts = ref 0 and n_reads = ref 0 and n_writes = ref 0 in
  let rows = ref 0 and examined_rows = ref 0 in
  let d_reads = ref 0 and d_writes = ref 0 and d_skipped = ref 0 and d_checks = ref 0 in
  let d_hits = ref 0 and d_misses = ref 0 and d_pairs = ref 0 in
  let d_jbytes = ref 0 and d_jrecords = ref 0 and d_jfsyncs = ref 0 in
  let chain_n = ref 0.0 and chain_s = ref 0.0 in
  let delta counters f =
    let before = List.map (fun (c, _) -> Metric.count c) counters in
    let r = f () in
    List.iter2 (fun (c, acc) b0 -> acc := !acc + Metric.count c - b0) counters before;
    r
  in
  let instance = Lazy.force b.target.instance in
  for _ = half + 1 to rounds do
    List.iter
      (fun op ->
        incr attempted;
        incr n_stmts;
        let sid = !n_stmts in
        let t_stmt = now_s () in
        let stmt, dt = span sid "tquel.parse" (fun () -> Parser.parse_statement op.src) in
        Samples.add parse dt;
        let stmt = match stmt with Ok s -> s | Error e -> Tdb_error.internal "parse: %s" e in
        (* Reads also run untraced, before the traced run on even
           statements and after it on odd ones, for the tracing overhead. *)
        let plain_exec () =
          let chk = op.prepare () in
          let res, dt = span sid "exec.untraced" (fun () -> b.target.exec stmt) in
          dup_plain := !dup_plain +. dt;
          check op chk res
        in
        let env = b.target.semck_env stmt in
        let ok_semck, dt = span sid "tquel.semck" (fun () -> Semck.check_statement env stmt) in
        Samples.add semck dt;
        (match ok_semck with Ok () -> () | Error e -> fail_op ~kind:op.kind ~src:op.src e);
        if op.read then begin
          incr n_reads;
          (match stmt with
          | Ast.Retrieve r ->
              let sources = b.target.sources () in
              let _, dt = span sid "query.plan" (fun () -> Executor.plan_retrieve ~sources r) in
              Samples.add plan dt
          | _ -> ());
          List.iter
            (fun rel ->
              let _, dt = span sid "session.reader_view" (fun () -> Relation_file.reader_view rel) in
              Samples.add views dt)
            (b.relations ());
          if sid mod 2 = 0 then plain_exec ()
        end
        else incr n_writes;
        let chk = op.prepare () in
        let c0n, c0s = chain_totals () in
        let res, dt =
          delta
            [ (c_reads, d_reads); (c_wev, d_writes); (c_wsy, d_writes);
              (c_skipped, d_skipped); (c_checks, d_checks); (c_hits, d_hits);
              (c_misses, d_misses); (c_pairs, d_pairs); (c_jbytes, d_jbytes);
              (c_jrecords, d_jrecords); (c_jfsyncs, d_jfsyncs) ]
            (fun () -> span sid "exec.traced" (fun () -> b.target.analyze stmt))
        in
        let c1n, c1s = chain_totals () in
        chain_n := !chain_n +. c1n -. c0n;
        chain_s := !chain_s +. c1s -. c0s;
        if op.read then dup_traced := !dup_traced +. dt;
        (match res with
        | Error e -> fail_op ~kind:op.kind ~src:op.src e
        | Ok a ->
            if not (chk a.Engine.a_outcome) then
              mismatch ~kind:op.kind ~src:op.src "wrong answer (traced)";
            traced_wall := !traced_wall +. a.Engine.a_wall_s;
            if op.read then rows := !rows + result_rows a.Engine.a_outcome;
            Option.iter
              (fun tree ->
                self_times self tree;
                if op.read then examined_rows := !examined_rows + examined tree)
              (Engine.outcome_trace a.Engine.a_outcome));
        if op.read && sid mod 2 = 1 then plain_exec ();
        let (), dt = span sid "session.publish" (fun () -> Db_instance.republish instance) in
        Samples.add publish dt;
        record { sid; sname = "stmt"; start = t_stmt; stop = now_s (); parent = "" })
      (b.round rng)
  done;
  let db = b.finish () in
  let replay_s =
    if workload_name = "durable-writes" then !Durable_writes.replay_s else replay_probe ()
  in
  let scan_us, decode_us = scan_probe (b.relations ()) in
  let per_stmt x = float x /. float (max 1 !n_stmts) in
  let per_write x = float x /. float (max 1 !n_writes) in
  let jbytes = per_write !d_jbytes in
  let share k =
    100.0 *. Option.value (Hashtbl.find_opt self k) ~default:0.0 /. Float.max 1e-12 !traced_wall
  in
  write_spans ();
  ignore (Sys.opaque_identity db);
  Printf.printf "traced statements %d (%d reads, %d writes); gc phase %d statements\n"
    !n_stmts !n_reads !n_writes !stmts_a;
  [
    m "tquel.parse_us" "us" (median_of parse *. 1e6);
    m "tquel.semck_us" "us" (median_of semck *. 1e6);
    m "query.plan_us" "us" (median_of plan *. 1e6);
  ]
  @ List.map (fun k -> m (Printf.sprintf "query.%s_self_pct" k) "%" (share k)) operator_kinds
  @ [
      m "query.rows_examined_per_row" "ratio"
        (float !examined_rows /. float (max 1 !rows));
      m "tjoin.candidate_pairs_per_stmt" "count" (per_stmt !d_pairs);
      m "storage.pages_read_per_stmt" "pages" (per_stmt !d_reads);
      m "storage.pages_written_per_stmt" "pages" (per_stmt !d_writes);
      m "storage.pages_skipped_per_stmt" "pages" (per_stmt !d_skipped);
      m "storage.fence_checks_per_stmt" "count" (per_stmt !d_checks);
      m "storage.pool_hit_ratio" "ratio"
        (float !d_hits /. float (max 1 (!d_hits + !d_misses)));
      m "storage.mean_chain_pages" "pages" (!chain_s /. Float.max 1.0 !chain_n);
      m "storage.crc_us_per_page" "us" (crc_probe ());
      m "storage.scan_us_per_page" "us" scan_us;
      m "storage.decode_us_per_record" "us" decode_us;
      m "journal.bytes_per_write" "bytes" jbytes;
      m "journal.records_per_write" "count" (per_write !d_jrecords);
      m "journal.fsyncs_per_write" "count" (per_write !d_jfsyncs);
      m "journal.replay_ms" "ms" (replay_s *. 1000.0);
      m "device.fsync_us" "us"
        (fsync_probe ~dir:b.dir ~size:(max Page.size (int_of_float jbytes)));
      m "session.publish_us" "us" (median_of publish *. 1e6);
      m "session.reader_view_us" "us" (median_of views *. 1e6);
      m "gc.minor_words_per_stmt" "words" (!minor_words /. float (max 1 !stmts_a));
      m "gc.major_collections_per_kstmt" "count"
        (1000.0 *. float !majors /. float (max 1 !stmts_a));
      m "obs.trace_overhead" "ratio" (!dup_traced /. Float.max 1e-12 !dup_plain);
    ]

(* --- output ----------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  let correct = !failed = 0 in
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed body;
  if not correct then exit 1

let () =
  pin_config ();
  print_config ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Printf.printf "rounds: %d of workload %s\n%!" rounds workload_name;
  if traced then print_result (per_layer ())
  else begin
    let metrics, db = end_to_end () in
    let heap = live_heap_mb db in
    print_result (metrics @ [ m "live_heap_mb" "MB" heap ])
  end
