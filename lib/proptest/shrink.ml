(* Counterexample shrinking.

   A shrinker maps a failing value to a lazy sequence of strictly
   "smaller" candidates; the runner greedily re-tests candidates and
   recurses on the first that still fails. Sequences must be finite and
   move toward a fixpoint (every candidate smaller under some
   well-founded measure), or shrinking would not terminate — the runner
   additionally caps total shrink steps as a backstop. *)

module Z = Sagma_bigint.Bigint

type 'a t = 'a -> 'a Seq.t

let nothing : 'a t = fun _ -> Seq.empty

(* Halving walk toward zero: x → 0, x/2, x - x/4, ..., pred x. *)
let int : int t =
 fun x ->
  if x = 0 then Seq.empty
  else begin
    let rec candidates step () =
      if step = 0 then Seq.Nil
      else Seq.Cons (x - step, candidates (step / 2))
    in
    candidates x
  end

let bigint : Z.t t =
 fun x ->
  if Z.is_zero x then Seq.empty
  else begin
    let rec candidates step () =
      if Z.is_zero step then Seq.Nil
      else Seq.Cons (Z.sub x step, candidates (Z.shift_right step 1))
    in
    candidates x
  end

let option (shrink : 'a t) : 'a option t = function
  | None -> Seq.empty
  | Some x -> Seq.cons None (Seq.map (fun y -> Some y) (shrink x))

let pair (sa : 'a t) (sb : 'b t) : ('a * 'b) t =
 fun (a, b) ->
  Seq.append (Seq.map (fun a' -> (a', b)) (sa a)) (Seq.map (fun b' -> (a, b')) (sb b))

let triple (sa : 'a t) (sb : 'b t) (sc : 'c t) : ('a * 'b * 'c) t =
 fun (a, b, c) ->
  List.to_seq
    [ Seq.map (fun a' -> (a', b, c)) (sa a);
      Seq.map (fun b' -> (a, b', c)) (sb b);
      Seq.map (fun c' -> (a, b, c')) (sc c) ]
  |> Seq.concat

(* Structural list shrinking: drop halves, then quarters, ..., then
   single elements, then shrink elements in place. *)
let list ?(shrink_elt : 'a t = nothing) () : 'a list t =
 fun xs ->
  let n = List.length xs in
  if n = 0 then Seq.empty
  else begin
    let drop_chunk chunk =
      (* all ways to remove [chunk] consecutive elements *)
      Seq.init (n - chunk + 1) (fun at ->
          List.filteri (fun i _ -> i < at || i >= at + chunk) xs)
    in
    let rec chunks c () = if c = 0 then Seq.Nil else Seq.Cons (c, chunks (c / 2)) in
    let removals = Seq.concat_map drop_chunk (chunks n) in
    let in_place =
      Seq.concat
        (Seq.init n (fun i ->
             Seq.map
               (fun x' -> List.mapi (fun j x -> if j = i then x' else x) xs)
               (shrink_elt (List.nth xs i))))
    in
    Seq.append removals in_place
  end

let string : string t =
 fun s ->
  let chars = List.init (String.length s) (String.get s) in
  Seq.map
    (fun cs -> String.init (List.length cs) (List.nth cs))
    (list ~shrink_elt:(fun c -> if c = 'a' then Seq.empty else Seq.return 'a') () chars)
