let ctx = Interpreter.default_context

let fail_receipt reason =
  Tx.encode_receipt { ok = false; gas_used = 0; output = reason }

let rec apply_tx state (tx : Tx.t) =
  match tx with
  | Faucet { account; amount } ->
      (State.add_balance state account amount,
       Tx.encode_receipt { ok = true; gas_used = 0; output = "" })
  | Create { sender; value; init_code; gas } ->
      let intrinsic = Gas.intrinsic ~is_create:true ~data:init_code in
      if gas < intrinsic then (state, fail_receipt "intrinsic gas too low")
      else begin
        let res, addr =
          Interpreter.create ~ctx ~state ~caller:sender ~value ~init_code
            ~gas:(gas - intrinsic)
        in
        let receipt =
          Tx.encode_receipt
            {
              ok = res.success;
              gas_used = intrinsic + res.gas_used;
              output = (if res.success then addr else res.output);
            }
        in
        ((if res.success then res.state else state), receipt)
      end
  | Call { sender; to_; value; data; gas } ->
      let intrinsic = Gas.intrinsic ~is_create:false ~data in
      if gas < intrinsic then (state, fail_receipt "intrinsic gas too low")
      else begin
        let res =
          Interpreter.call ~ctx ~state ~caller:sender ~address:to_ ~value ~data
            ~gas:(gas - intrinsic)
        in
        let receipt =
          Tx.encode_receipt
            { ok = res.success; gas_used = intrinsic + res.gas_used; output = res.output }
        in
        ((if res.success then res.state else state), receipt)
      end
  | Chunk txs ->
      (* Apply sub-transactions in order; the chunk receipt aggregates
         success count and total gas. *)
      let state, ok_count, gas =
        List.fold_left
          (fun (state, ok_count, gas) tx ->
            let state, receipt = apply_tx state tx in
            match Tx.decode_receipt receipt with
            | Some rc ->
                (state, (if rc.Tx.ok then ok_count + 1 else ok_count), gas + rc.Tx.gas_used)
            | None -> (state, ok_count, gas))
          (state, 0, 0) txs
      in
      ( state,
        Tx.encode_receipt
          { ok = ok_count = List.length txs; gas_used = gas; output = string_of_int ok_count } )

let apply state op =
  match Tx.decode op with
  | None -> (state, fail_receipt "undecodable transaction")
  | Some tx -> apply_tx state tx

let create () = Sbft_store.Auth_store.create ~apply ()
