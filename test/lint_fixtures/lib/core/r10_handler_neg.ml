(* R10 negative (twin of r10_handler_pos): the handler goes through the
   priced layer, whose one call charges and verifies. *)
let on_proof t ctx ~seq ~proof =
  if Priced.verify ctx t.keys t.key ~msg:seq proof then accept t ~seq
