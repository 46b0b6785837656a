(* Reference models the benchmark checks the engine against.  They are
   plain lists and hash tables over the TQuel semantics of a temporal
   (bitemporal, interval) relation, written without any engine code: the
   engine's outputs must match them exactly.

   A stored version carries its user attributes, a valid period
   [vfrom, vto) and a transaction period [tstart, tstop).  The write
   operations mirror TQuel's temporal update rules:

   - append: a new version, valid and current from [now] on;
   - delete: the current version's transaction period ends at [now], and a
     copy whose validity ends at [now] becomes current;
   - replace: a delete followed by an append of the new values. *)

module Chronon = Tdb_time.Chronon
module Value = Tdb_relation.Value
module Schema = Tdb_relation.Schema

type version = {
  id : int;
  amount : int;
  seq : int;
  str : string;
  vfrom : Chronon.t;
  vto : Chronon.t;
  tstart : Chronon.t;
  mutable tstop : Chronon.t;
}

(* [p] contains instant [c]: from <= c < to. *)
let contains ~from_ ~to_ c =
  Chronon.compare from_ c <= 0 && Chronon.compare c to_ < 0

(* Two non-empty half-open periods share a chronon. *)
let overlaps (a : version) (b : version) =
  Chronon.compare (Chronon.max a.vfrom b.vfrom) (Chronon.min a.vto b.vto) < 0

let valid_at now v = contains ~from_:v.vfrom ~to_:v.vto now
let stored_at t v = contains ~from_:v.tstart ~to_:v.tstop t

(* --- a relation --------------------------------------------------------- *)

type rel = {
  by_id : (int, version list) Hashtbl.t;  (* newest first *)
  mutable versions : int;
}

let create () = { by_id = Hashtbl.create 1024; versions = 0 }

let add r v =
  let old = Option.value (Hashtbl.find_opt r.by_id v.id) ~default:[] in
  Hashtbl.replace r.by_id v.id (v :: old);
  r.versions <- r.versions + 1

let versions_of r id = Option.value (Hashtbl.find_opt r.by_id id) ~default:[]
let all r = Hashtbl.fold (fun _ vs acc -> List.rev_append vs acc) r.by_id []
let version_count r = r.versions

(* Versions in the database state as of transaction time [t]. *)
let state_at r t id = List.filter (stored_at t) (versions_of r id)

(* Current versions of [id] at [now]: stored now and valid now. *)
let current r ~now id =
  List.filter (fun v -> stored_at now v && valid_at now v) (versions_of r id)

let append r ~now ~id ~amount ~seq ~str =
  add r
    {
      id; amount; seq; str;
      vfrom = now; vto = Chronon.forever;
      tstart = now; tstop = Chronon.forever;
    }

(* Ends the version's current transaction period and records that its
   validity ends at [now]. *)
let terminate r ~now v =
  v.tstop <- now;
  add r { v with vto = now; tstart = now; tstop = Chronon.forever }

(* Returns (matched, inserted), as the engine's [Modified] outcome. *)
let delete r ~now id =
  let vs = current r ~now id in
  List.iter (terminate r ~now) vs;
  (List.length vs, List.length vs)

let replace r ~now id f =
  let vs = current r ~now id in
  List.iter
    (fun v ->
      terminate r ~now v;
      let amount, seq = f v in
      append r ~now ~id ~amount ~seq ~str:v.str)
    vs;
  (List.length vs, 2 * List.length vs)

(* --- conversion to and from stored tuples -------------------------------- *)

let time_index what schema =
  match what schema with
  | Some i -> i
  | None -> invalid_arg "Model: schema lacks a time attribute"

let int_at (tu : Value.t array) i =
  match tu.(i) with Value.Int n -> n | _ -> invalid_arg "Model: not an int"

let str_at (tu : Value.t array) i =
  match tu.(i) with Value.Str s -> s | _ -> invalid_arg "Model: not a string"

let time_at (tu : Value.t array) i =
  match tu.(i) with Value.Time t -> t | _ -> invalid_arg "Model: not a time"

(* The user attributes are (id, amount, seq, string), in that order. *)
let of_tuple schema tu =
  {
    id = int_at tu 0;
    amount = int_at tu 1;
    seq = int_at tu 2;
    str = str_at tu 3;
    vfrom = time_at tu (time_index Schema.valid_from_index schema);
    vto = time_at tu (time_index Schema.valid_to_index schema);
    tstart = time_at tu (time_index Schema.transaction_start_index schema);
    tstop = time_at tu (time_index Schema.transaction_stop_index schema);
  }

let to_tuple schema v =
  let tu = Array.make (Schema.arity schema) (Value.Int 0) in
  tu.(0) <- Value.Int v.id;
  tu.(1) <- Value.Int v.amount;
  tu.(2) <- Value.Int v.seq;
  tu.(3) <- Value.Str v.str;
  tu.(time_index Schema.valid_from_index schema) <- Value.Time v.vfrom;
  tu.(time_index Schema.valid_to_index schema) <- Value.Time v.vto;
  tu.(time_index Schema.transaction_start_index schema) <- Value.Time v.tstart;
  tu.(time_index Schema.transaction_stop_index schema) <- Value.Time v.tstop;
  tu

let load schema tuples =
  let r = create () in
  List.iter (fun tu -> add r (of_tuple schema tu)) tuples;
  r

(* A result set in canonical form: rows as value lists, sorted. *)
type rows = Value.t list list

let canonical (rows : Value.t list list) : rows = List.sort compare rows

let canonical_tuples (tuples : Value.t array list) : rows =
  canonical (List.map Array.to_list tuples)

let stored_rows schema r =
  canonical (List.map (fun v -> Array.to_list (to_tuple schema v)) (all r))

(* --- the paper's evolved database --------------------------------------- *)

let day = 86_400

(* Uniform evolution: round [k] sets the clock to [base + k days]; the
   replace of [h] then runs one second later and that of [i] two seconds
   later, each replacing every current version with [seq + 1]. *)
let evolve ~base ~rounds h i =
  for k = 1 to rounds do
    let at = Chronon.add_seconds base (k * day) in
    List.iter
      (fun (r, tick) ->
        let now = Chronon.add_seconds at tick in
        let ids = Hashtbl.fold (fun id _ acc -> id :: acc) r.by_id [] in
        List.iter
          (fun id -> ignore (replace r ~now id (fun v -> (v.amount, v.seq + 1))))
          ids)
      [ (h, 1); (i, 2) ]
  done;
  if rounds = 0 then base else Chronon.add_seconds base ((rounds * day) + 2)

let t v = Value.Time v
let n v = Value.Int v

(* [retrieve coalesced (c = count(x.id), s = sum(x.amount))] by snapshot
   reduction: the answer at every chronon is the plain count and sum over
   the versions valid at that chronon.  Between two consecutive version
   endpoints every chronon sees the same versions, so one evaluation per
   elementary interval covers them all; chronons with no version yield no
   row, and adjacent intervals with equal answers coalesce. *)
let temporal_count_sum versions =
  let points =
    List.concat_map (fun v -> [ v.vfrom; v.vto ]) versions
    |> List.sort_uniq Chronon.compare
    |> Array.of_list
  in
  let snapshot c =
    List.fold_left
      (fun (k, s) v -> if valid_at c v then (k + 1, s + v.amount) else (k, s))
      (0, 0) versions
  in
  let rows = ref [] in
  for j = 0 to Array.length points - 2 do
    let from_ = points.(j) and to_ = points.(j + 1) in
    let k, s = snapshot from_ in
    if k > 0 then
      match !rows with
      | (k', s', f', t') :: rest when k' = k && s' = s && Chronon.equal t' from_
        ->
          rows := (k, s, f', to_) :: rest
      | _ -> rows := (k, s, from_, to_) :: !rows
  done;
  List.rev_map (fun (k, s, f, e) -> [ n k; n s; t f; t e ]) !rows

(* Expected answers of the temporal-queries statements, by name.  [now]
   is the database clock; [h] and [i] the evolved models. *)
let paper_answer ~now ~h ~i name =
  let hs = List.filter (stored_at now) (all h) in
  let is = List.filter (stored_at now) (all i) in
  let h_by_id id = List.filter (stored_at now) (versions_of h id) in
  let i_by_id id = List.filter (stored_at now) (versions_of i id) in
  let at_08 = Chronon.parse_exn "08:00 1/1/80" in
  let at_04 = Chronon.parse_exn "4:00 1/1/80" in
  let version_row v = [ n v.id; n v.seq; t v.vfrom; t v.vto ] in
  let overlap_period a b = [ t (Chronon.max a.vfrom b.vfrom); t (Chronon.min a.vto b.vto) ] in
  let rows =
    match name with
    | "Q01" -> List.map version_row (h_by_id 500)
    | "Q02" -> List.map version_row (i_by_id 500)
    | "Q03" -> List.map version_row (List.filter (stored_at at_08) (all h))
    | "Q04" -> List.map version_row (List.filter (stored_at at_08) (all i))
    | "Q05" -> List.map version_row (List.filter (valid_at now) (h_by_id 500))
    | "Q06" -> List.map version_row (List.filter (valid_at now) (i_by_id 500))
    | "Q07" ->
        List.map version_row
          (List.filter (fun v -> v.amount = 69400 && valid_at now v) hs)
    | "Q08" ->
        List.map version_row
          (List.filter (fun v -> v.amount = 73700 && valid_at now v) is)
    | "Q09" ->
        List.concat_map
          (fun vi ->
            List.filter_map
              (fun vh ->
                if overlaps vh vi then
                  Some ([ n vh.id; n vi.id; n vi.amount ] @ overlap_period vh vi)
                else None)
              (h_by_id vi.amount))
          (List.filter (valid_at now) is)
    | "Q10" ->
        List.concat_map
          (fun vh ->
            List.filter_map
              (fun vi ->
                if overlaps vh vi then
                  Some ([ n vi.id; n vh.id; n vh.amount ] @ overlap_period vh vi)
                else None)
              (i_by_id vh.amount))
          (List.filter (valid_at now) hs)
    | "Q11" ->
        let hs = List.filter (stored_at at_04) (all h) in
        let is = List.filter (stored_at at_04) (all i) in
        List.concat_map
          (fun vh ->
            List.filter_map
              (fun vi ->
                if Chronon.compare vh.vfrom vi.vfrom <= 0 then
                  Some
                    [
                      n vh.id; n vh.seq; n vi.id; n vi.seq; n vi.amount;
                      t vh.vfrom; t vi.vto;
                    ]
                else None)
              is)
          hs
    | "Q12" ->
        List.concat_map
          (fun vh ->
            List.filter_map
              (fun vi ->
                if vi.amount = 73700 && overlaps vh vi then
                  Some
                    [
                      n vh.id; n vh.seq; n vi.id; n vi.seq; n vi.amount;
                      t (Chronon.max vh.vfrom vi.vfrom);
                      t (Chronon.max vh.vto vi.vto);
                    ]
                else None)
              is)
          (h_by_id 500)
    | "Q09c" ->
        let h_by_amount = Hashtbl.create 1024 in
        List.iter (fun v -> Hashtbl.add h_by_amount v.amount v) hs;
        List.concat_map
          (fun vi ->
            List.filter_map
              (fun vh ->
                if overlaps vh vi then
                  Some ([ n vh.id; n vi.id; n vi.amount ] @ overlap_period vh vi)
                else None)
              (Hashtbl.find_all h_by_amount vi.amount))
          (List.filter (valid_at now) is)
    | "AGG" -> temporal_count_sum hs
    | other -> invalid_arg ("Model.paper_answer: " ^ other)
  in
  canonical rows
