(* Baby-step/giant-step discrete logarithms, generic over the group.

   BGN decryption reduces to a discrete log in a subgroup with a known
   small exponent bound (the aggregate's value range). The baby table is
   reusable across decryptions with the same base, which matters because
   one SAGMA query decrypts many aggregate components. The bound a table
   was built for only sets its stride: [solve] takes its own bound and
   walks as many giant steps as that bound needs, so any table solves
   any bound. *)

type 'a ops = {
  mul : 'a -> 'a -> 'a;
  inv : 'a -> 'a;
  one : 'a;
  serialize : 'a -> string;  (* injective encoding for table keys *)
}

type 'a table = {
  ops : 'a ops;
  base : 'a;
  stride : int;                       (* number of baby steps *)
  baby : (string, int) Hashtbl.t;     (* base^j -> j, 0 <= j < stride *)
  giant : 'a;                         (* base^(-stride) *)
}

let m_tables = Sagma_obs.Metrics.counter "bgn.dlog.table_builds"
let m_solves = Sagma_obs.Metrics.counter "bgn.dlog.solves"
let m_giant_steps = Sagma_obs.Metrics.counter "bgn.dlog.giant_steps"

(* [make ops base ~max] prepares a table able to solve exponents in
   [0, max]. The table holds about sqrt(max) entries. *)
let make (ops : 'a ops) (base : 'a) ~(max : int) : 'a table =
  if max < 0 then invalid_arg "Dlog.make: negative bound";
  Sagma_obs.Metrics.incr m_tables;
  let stride = int_of_float (sqrt (float_of_int (max + 1))) + 1 in
  let baby = Hashtbl.create (2 * stride) in
  let acc = ref ops.one in
  for j = 0 to stride - 1 do
    let key = ops.serialize !acc in
    if not (Hashtbl.mem baby key) then Hashtbl.add baby key j;
    acc := ops.mul !acc base
  done;
  (* !acc = base^stride *)
  { ops; base; stride; baby; giant = ops.inv !acc }

(* A table for a new bound over the same base, which may have been
   costly to derive. *)
let resize (t : 'a table) ~(max : int) : 'a table = make t.ops t.base ~max

(* [solve t target ~max] finds x in [0, max] with base^x = target. *)
let solve (t : 'a table) (target : 'a) ~(max : int) : int option =
  Sagma_obs.Metrics.incr m_solves;
  let steps = (max / t.stride) + 1 in
  let rec go i cur =
    if i > steps then None
    else begin
      match Hashtbl.find_opt t.baby (t.ops.serialize cur) with
      | Some j when (i * t.stride) + j <= max ->
        Sagma_obs.Metrics.add m_giant_steps i;
        Some ((i * t.stride) + j)
      | _ -> go (i + 1) (t.ops.mul cur t.giant)
    end
  in
  go 0 target
