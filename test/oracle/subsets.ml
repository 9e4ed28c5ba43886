open Optimizer

(* Standard descending submask enumeration: sub' = (sub - 1) land t. *)
let first_subset t =
  if t = 0 then None
  else begin
    let s = (t - 1) land t in
    if s = 0 then None else Some s
  end

let next_subset t sub =
  if sub land t <> sub then invalid_arg "Subsets.next_subset: not a subset";
  let s = (sub - 1) land t in
  if s = 0 then None else Some s

(* Same enumeration as [first_subset]/[next_subset] but driven by a raw
   int loop: no option box per submask. This runs in the innermost loop
   of the exhaustive DP (3^n submask visits over all subsets). *)
let iter_strict_subsets t f =
  let s = ref ((t - 1) land t) in
  while !s <> 0 do
    f !s;
    s := (!s - 1) land t
  done

(* Gosper's hack: the next larger int with the same population count.
   Together with the smallest k-bit mask this enumerates all subsets of
   {0..n-1} of cardinality k in increasing numeric order, with O(1) work
   and zero allocation per subset. *)
let iter_of_cardinality ~n ~k f =
  if n < 0 || n > 62 then invalid_arg "Subsets.iter_of_cardinality";
  if k >= 1 && k <= n then begin
    let limit = Relset.full n in
    let s = ref ((1 lsl k) - 1) in
    while !s <= limit do
      let m = !s in
      f m;
      let c = m land -m in
      let r = m + c in
      s := ((m lxor r) lsr 2) / c lor r
    done
  end

let preds_between (q : Query.t) a b =
  List.filter
    (fun (p : Query.join_pred) ->
      (Relset.mem p.jleft a && Relset.mem p.jright b)
      || (Relset.mem p.jleft b && Relset.mem p.jright a))
    q.preds

let connected_subsets q s =
  let acc = ref [] in
  Optimizer.Query.iter_connected_subsets q s (fun c -> acc := c :: !acc);
  !acc
