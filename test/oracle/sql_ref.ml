open Optimizer.Query

let to_sql t =
  let buf = Buffer.create 512 in
  let alias i = t.rels.(i).ralias in
  Buffer.add_string buf "SELECT ";
  (match t.agg with
  | None ->
      Buffer.add_string buf
        (String.concat ", "
           (Array.to_list (Array.map (fun r -> r.ralias ^ ".*") t.rels)))
  | Some a ->
      let groups =
        List.map (fun (i, c) -> Printf.sprintf "%s.%s" (alias i) c) a.group_by
      in
      let sums =
        List.map (fun (i, c) -> Printf.sprintf "SUM(%s.%s)" (alias i) c) a.sum_cols
      in
      Buffer.add_string buf
        (String.concat ", " (groups @ ("COUNT(*)" :: sums))));
  Buffer.add_string buf "\nFROM ";
  Buffer.add_string buf
    (String.concat ", "
       (Array.to_list
          (Array.map (fun r -> Printf.sprintf "%s AS %s" r.rtable r.ralias) t.rels)));
  let join_conds =
    List.map
      (fun p ->
        Printf.sprintf "%s.%s = %s.%s" (alias p.jleft) p.jlcol (alias p.jright)
          p.jrcol)
      t.preds
  in
  let filter_conds =
    List.map
      (fun f ->
        let op = match f.fop with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
        Printf.sprintf "%s.%s %s %d" (alias f.frel) f.fcol op f.fvalue)
      t.filters
  in
  (match join_conds @ filter_conds with
  | [] -> ()
  | conds ->
      Buffer.add_string buf "\nWHERE ";
      Buffer.add_string buf (String.concat "\n  AND " conds));
  (match t.agg with
  | Some a when a.group_by <> [] ->
      Buffer.add_string buf "\nGROUP BY ";
      Buffer.add_string buf
        (String.concat ", "
           (List.map (fun (i, c) -> Printf.sprintf "%s.%s" (alias i) c) a.group_by))
  | _ -> ());
  Buffer.add_string buf (Printf.sprintf "\n-- fingerprint %s" t.qid);
  Buffer.contents buf

let template_of_qid qid =
  match String.index_opt qid '#' with
  | Some i -> String.sub qid 0 i
  | None -> qid

let key_of_query q =
  let sql = to_sql q in
  let marker = "\n-- fingerprint" in
  let mlen = String.length marker in
  let body =
    match String.rindex_opt sql '\n' with
    | Some i
      when String.length sql - i >= mlen && String.sub sql i mlen = marker ->
        String.sub sql 0 i
    | _ -> sql
  in
  template_of_qid q.qid ^ "|" ^ body
