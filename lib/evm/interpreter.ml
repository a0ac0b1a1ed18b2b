open Sbft_crypto

type context = {
  block_number : int;
  timestamp : int;
  origin : string;
  gas_price : U256.t;
}

let default_context =
  { block_number = 0; timestamp = 0; origin = String.make 20 '\x00'; gas_price = U256.zero }

type log = { address : string; topics : U256.t list; data : string }

type internal_result = {
  ok_internal : bool;
  state_internal : State.t;
  output_internal : string;
  gas_left_internal : int;
  logs_internal : log list;
}

type result = {
  state : State.t;
  success : bool;
  output : string;
  gas_used : int;
  logs : log list;
  reverted : bool;
  error : string option;
}

(* Internal halting conditions of one frame. *)
exception Halt of string (* RETURN / STOP payload *)
exception Rev of string (* REVERT payload *)
exception Fail of string (* consumes all gas *)

let max_call_depth = 256
let max_memory_words = 1 lsl 22 (* 128 MiB *)

type frame = {
  ctx : context;
  code : string;
  jumpdests : bool array;
  stack : Machine.Stack.t;
  mem : Machine.Memory.t;
  mutable pc : int;
  mutable gas : int;
  mutable charged_words : int;
  mutable state : State.t;
  mutable logs : log list;
  mutable returndata : string;
  caller : string;
  address : string;
  value : U256.t;
  data : string;
  depth : int;
}

let analyze_jumpdests code =
  let n = String.length code in
  let valid = Array.make n false in
  let i = ref 0 in
  while !i < n do
    let b = Char.code code.[!i] in
    if b = 0x5b then valid.(!i) <- true;
    if b >= 0x60 && b <= 0x7f then i := !i + (b - 0x5f) + 1 else incr i
  done;
  valid

let use_gas f n =
  if n < 0 || f.gas < n then raise (Fail "out of gas");
  f.gas <- f.gas - n

(* Charge memory expansion to cover [offset, offset+len). *)
let charge_memory f ~offset ~len =
  if len > 0 then begin
    if offset < 0 || len < 0 || offset > max_int - len then raise (Fail "memory overflow");
    let words = (offset + len + 31) / 32 in
    if words > max_memory_words then raise (Fail "memory limit");
    if words > f.charged_words then begin
      use_gas f (Gas.memory_cost words - Gas.memory_cost f.charged_words);
      f.charged_words <- words
    end
  end

let pop_int f =
  (* Stack value used as an offset/length: anything that does not fit an
     int would blow the memory limit anyway. *)
  U256.to_int_clamped (Machine.Stack.pop f.stack)

let word_count len = (len + 31) / 32

let push_bool f b = Machine.Stack.push f.stack (if b then U256.one else U256.zero)

(* Exponent byte length for EXP gas. *)
let byte_length v = (U256.bits v + 7) / 8

let rec exec_frame f : unit =
  let stack = f.stack in
  while true do
    if f.pc >= String.length f.code then raise (Halt "");
    let op = Opcode.of_byte (Char.code f.code.[f.pc]) in
    use_gas f (Gas.static_cost op);
    (match op with
    | STOP -> raise (Halt "")
    | ADD ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.add a b)
    | MUL ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.mul a b)
    | SUB ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.sub a b)
    | DIV ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.div a b)
    | SDIV ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.sdiv a b)
    | MOD ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.rem a b)
    | SMOD ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.srem a b)
    | ADDMOD ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        let m = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.addmod a b m)
    | MULMOD ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        let m = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.mulmod a b m)
    | EXP ->
        let base = Machine.Stack.pop stack and e = Machine.Stack.pop stack in
        use_gas f (Gas.g_exp_byte * byte_length e);
        Machine.Stack.push stack (U256.exp base e)
    | SIGNEXTEND ->
        let b = Machine.Stack.pop stack and x = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.sign_extend (U256.to_int_clamped b) x)
    | LT ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        push_bool f (U256.lt a b)
    | GT ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        push_bool f (U256.gt a b)
    | SLT ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        push_bool f (U256.slt a b)
    | SGT ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        push_bool f (U256.sgt a b)
    | EQ ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        push_bool f (U256.equal a b)
    | ISZERO -> push_bool f (U256.is_zero (Machine.Stack.pop stack))
    | AND ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.logand a b)
    | OR ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.logor a b)
    | XOR ->
        let a = Machine.Stack.pop stack and b = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.logxor a b)
    | NOT -> Machine.Stack.push stack (U256.lognot (Machine.Stack.pop stack))
    | BYTE ->
        let i = Machine.Stack.pop stack and x = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.byte (U256.to_int_clamped i) x)
    | SHL ->
        let n = Machine.Stack.pop stack and x = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.shift_left x (min 256 (U256.to_int_clamped n)))
    | SHR ->
        let n = Machine.Stack.pop stack and x = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.shift_right x (min 256 (U256.to_int_clamped n)))
    | SAR ->
        let n = Machine.Stack.pop stack and x = Machine.Stack.pop stack in
        Machine.Stack.push stack (U256.shift_right_arith x (min 256 (U256.to_int_clamped n)))
    | SHA3 ->
        let offset = pop_int f and len = pop_int f in
        charge_memory f ~offset ~len;
        use_gas f (Gas.g_sha3_word * word_count len);
        let data = Machine.Memory.load_slice f.mem ~offset ~len in
        Machine.Stack.push stack (U256.of_bytes_be (Keccak.digest data))
    | ADDRESS -> Machine.Stack.push stack (U256.of_bytes_be f.address)
    | BALANCE ->
        let addr = U256.to_bytes_be (Machine.Stack.pop stack) in
        let addr20 = String.sub addr 12 20 in
        Machine.Stack.push stack (State.balance f.state addr20)
    | SELFBALANCE -> Machine.Stack.push stack (State.balance f.state f.address)
    | ORIGIN -> Machine.Stack.push stack (U256.of_bytes_be f.ctx.origin)
    | CALLER -> Machine.Stack.push stack (U256.of_bytes_be f.caller)
    | CALLVALUE -> Machine.Stack.push stack f.value
    | CALLDATALOAD ->
        let off = pop_int f in
        let buf = Bytes.make 32 '\x00' in
        let avail = String.length f.data - off in
        if avail > 0 then
          Bytes.blit_string f.data off buf 0 (min 32 avail);
        Machine.Stack.push stack (U256.of_bytes_be (Bytes.unsafe_to_string buf))
    | CALLDATASIZE -> Machine.Stack.push stack (U256.of_int (String.length f.data))
    | CALLDATACOPY ->
        let dst = pop_int f and src = pop_int f and len = pop_int f in
        charge_memory f ~offset:dst ~len;
        use_gas f (Gas.g_copy_word * word_count len);
        let chunk = Bytes.make len '\x00' in
        let avail = String.length f.data - src in
        if avail > 0 then Bytes.blit_string f.data src chunk 0 (min len avail);
        Machine.Memory.store_slice f.mem ~offset:dst (Bytes.unsafe_to_string chunk)
    | CODESIZE -> Machine.Stack.push stack (U256.of_int (String.length f.code))
    | CODECOPY ->
        let dst = pop_int f and src = pop_int f and len = pop_int f in
        charge_memory f ~offset:dst ~len;
        use_gas f (Gas.g_copy_word * word_count len);
        let chunk = Bytes.make len '\x00' in
        let avail = String.length f.code - src in
        if avail > 0 then Bytes.blit_string f.code src chunk 0 (min len avail);
        Machine.Memory.store_slice f.mem ~offset:dst (Bytes.unsafe_to_string chunk)
    | GASPRICE -> Machine.Stack.push stack f.ctx.gas_price
    | EXTCODESIZE ->
        let addr = String.sub (U256.to_bytes_be (Machine.Stack.pop stack)) 12 20 in
        Machine.Stack.push stack (U256.of_int (String.length (State.code f.state addr)))
    | EXTCODEHASH ->
        let addr = String.sub (U256.to_bytes_be (Machine.Stack.pop stack)) 12 20 in
        if State.account_exists f.state addr then
          Machine.Stack.push stack
            (U256.of_bytes_be (Keccak.digest (State.code f.state addr)))
        else Machine.Stack.push stack U256.zero
    | EXTCODECOPY ->
        let addr = String.sub (U256.to_bytes_be (Machine.Stack.pop stack)) 12 20 in
        let dst = pop_int f and src = pop_int f and len = pop_int f in
        charge_memory f ~offset:dst ~len;
        use_gas f (Gas.g_copy_word * word_count len);
        let code = State.code f.state addr in
        let chunk = Bytes.make len '\x00' in
        let avail = String.length code - src in
        if avail > 0 then Bytes.blit_string code src chunk 0 (min len avail);
        Machine.Memory.store_slice f.mem ~offset:dst (Bytes.unsafe_to_string chunk)
    | RETURNDATASIZE -> Machine.Stack.push stack (U256.of_int (String.length f.returndata))
    | RETURNDATACOPY ->
        let dst = pop_int f and src = pop_int f and len = pop_int f in
        if src + len > String.length f.returndata then raise (Fail "returndata out of bounds");
        charge_memory f ~offset:dst ~len;
        use_gas f (Gas.g_copy_word * word_count len);
        Machine.Memory.store_slice f.mem ~offset:dst (String.sub f.returndata src len)
    | COINBASE -> Machine.Stack.push stack U256.zero
    | TIMESTAMP -> Machine.Stack.push stack (U256.of_int f.ctx.timestamp)
    | NUMBER -> Machine.Stack.push stack (U256.of_int f.ctx.block_number)
    | POP -> ignore (Machine.Stack.pop stack)
    | MLOAD ->
        let off = pop_int f in
        charge_memory f ~offset:off ~len:32;
        Machine.Stack.push stack (Machine.Memory.load_word f.mem off)
    | MSTORE ->
        let off = pop_int f in
        let v = Machine.Stack.pop stack in
        charge_memory f ~offset:off ~len:32;
        Machine.Memory.store_word f.mem off v
    | MSTORE8 ->
        let off = pop_int f in
        let v = Machine.Stack.pop stack in
        charge_memory f ~offset:off ~len:1;
        Machine.Memory.store_byte f.mem off (U256.to_int_clamped (U256.logand v (U256.of_int 0xFF)))
    | SLOAD ->
        let slot = Machine.Stack.pop stack in
        Machine.Stack.push stack (State.sload f.state ~addr:f.address ~slot)
    | SSTORE ->
        let slot = Machine.Stack.pop stack in
        let v = Machine.Stack.pop stack in
        let old = State.sload f.state ~addr:f.address ~slot in
        use_gas f
          (if U256.is_zero old && not (U256.is_zero v) then Gas.g_sstore_set
           else Gas.g_sstore_reset);
        f.state <- State.sstore f.state ~addr:f.address ~slot v
    | JUMP ->
        let dst = pop_int f in
        if dst >= Array.length f.jumpdests || not f.jumpdests.(dst) then
          raise (Fail "bad jump destination");
        f.pc <- dst - 1 (* incremented below *)
    | JUMPI ->
        let dst = pop_int f in
        let cond = Machine.Stack.pop stack in
        if not (U256.is_zero cond) then begin
          if dst >= Array.length f.jumpdests || not f.jumpdests.(dst) then
            raise (Fail "bad jump destination");
          f.pc <- dst - 1
        end
    | PC -> Machine.Stack.push stack (U256.of_int f.pc)
    | MSIZE -> Machine.Stack.push stack (U256.of_int (32 * Machine.Memory.size_words f.mem))
    | GAS -> Machine.Stack.push stack (U256.of_int f.gas)
    | JUMPDEST -> ()
    | PUSH n ->
        let avail = String.length f.code - (f.pc + 1) in
        let take = min n avail in
        let v =
          if take <= 0 then U256.zero
          else begin
            (* Bytes past the end of code read as zero. *)
            let raw = String.sub f.code (f.pc + 1) take ^ String.make (n - take) '\x00' in
            U256.of_bytes_be raw
          end
        in
        Machine.Stack.push stack v;
        f.pc <- f.pc + n
    | DUP n -> Machine.Stack.dup stack n
    | SWAP n -> Machine.Stack.swap stack n
    | LOG n ->
        let offset = pop_int f and len = pop_int f in
        let topics = List.init n (fun _ -> Machine.Stack.pop stack) in
        charge_memory f ~offset ~len;
        use_gas f (Gas.g_log_byte * len);
        let data = Machine.Memory.load_slice f.mem ~offset ~len in
        f.logs <- { address = f.address; topics; data } :: f.logs
    | RETURN ->
        let offset = pop_int f and len = pop_int f in
        charge_memory f ~offset ~len;
        raise (Halt (Machine.Memory.load_slice f.mem ~offset ~len))
    | REVERT ->
        let offset = pop_int f and len = pop_int f in
        charge_memory f ~offset ~len;
        raise (Rev (Machine.Memory.load_slice f.mem ~offset ~len))
    | CALL -> do_call f ~mode:`Call
    | STATICCALL -> do_call f ~mode:`Static
    | DELEGATECALL -> do_call f ~mode:`Delegate
    | CREATE -> do_create f
    | INVALID b -> raise (Fail (Printf.sprintf "invalid opcode 0x%02x" b)));
    f.pc <- f.pc + 1
  done

and do_call f ~mode =
  let stack = f.stack in
  let gas_req = U256.to_int_clamped (Machine.Stack.pop stack) in
  let to_word = Machine.Stack.pop stack in
  let value =
    match mode with `Call -> Machine.Stack.pop stack | `Static | `Delegate -> U256.zero
  in
  let in_off = pop_int f and in_len = pop_int f in
  let out_off = pop_int f and out_len = pop_int f in
  let to_addr = String.sub (U256.to_bytes_be to_word) 12 20 in
  charge_memory f ~offset:in_off ~len:in_len;
  charge_memory f ~offset:out_off ~len:out_len;
  if not (U256.is_zero value) then use_gas f Gas.g_call_value;
  (* EIP-150: forward at most 63/64 of the remaining gas. *)
  let cap = f.gas - (f.gas / 64) in
  let child_gas = min gas_req cap in
  use_gas f child_gas;
  let stipend = if U256.is_zero value then 0 else 2300 in
  let calldata = Machine.Memory.load_slice f.mem ~offset:in_off ~len:in_len in
  let res =
    match mode with
    | `Call | `Static ->
        run_call ~ctx:f.ctx ~state:f.state ~caller:f.address ~address:to_addr ~value
          ~data:calldata ~gas:(child_gas + stipend) ~depth:(f.depth + 1)
    | `Delegate ->
        (* DELEGATECALL: run the callee's code in OUR storage context,
           preserving caller and call value. *)
        if f.depth + 1 > max_call_depth then
          { ok_internal = false; state_internal = f.state; output_internal = "";
            gas_left_internal = 0; logs_internal = [] }
        else begin
          let code = State.code f.state to_addr in
          if String.length code = 0 then
            { ok_internal = true; state_internal = f.state; output_internal = "";
              gas_left_internal = child_gas; logs_internal = [] }
          else
            run_code ~ctx:f.ctx ~state:f.state ~caller:f.caller ~address:f.address
              ~value:f.value ~data:calldata ~gas:child_gas ~code ~depth:(f.depth + 1)
        end
  in
  f.gas <- f.gas + res.gas_left_internal;
  f.returndata <- res.output_internal;
  if res.ok_internal then begin
    f.state <- res.state_internal;
    f.logs <- res.logs_internal @ f.logs
  end;
  let copy_len = min out_len (String.length res.output_internal) in
  if copy_len > 0 then
    Machine.Memory.store_slice f.mem ~offset:out_off (String.sub res.output_internal 0 copy_len);
  push_bool f res.ok_internal

and do_create f =
  let stack = f.stack in
  let value = Machine.Stack.pop stack in
  let offset = pop_int f and len = pop_int f in
  charge_memory f ~offset ~len;
  let init_code = Machine.Memory.load_slice f.mem ~offset ~len in
  let cap = f.gas - (f.gas / 64) in
  use_gas f cap;
  let res, addr =
    run_create ~ctx:f.ctx ~state:f.state ~caller:f.address ~value ~init_code ~gas:cap
      ~depth:(f.depth + 1)
  in
  f.gas <- f.gas + res.gas_left_internal;
  f.returndata <- (if res.ok_internal then "" else res.output_internal);
  if res.ok_internal then begin
    f.state <- res.state_internal;
    f.logs <- res.logs_internal @ f.logs;
    Machine.Stack.push stack (U256.of_bytes_be addr)
  end
  else Machine.Stack.push stack U256.zero

(* Internal result threading between nested frames. *)
and run_call ~ctx ~state ~caller ~address ~value ~data ~gas ~depth =
  if depth > max_call_depth then
    { ok_internal = false; state_internal = state; output_internal = "";
      gas_left_internal = 0; logs_internal = [] }
  else begin
    match State.transfer state ~from_:caller ~to_:address value with
    | None ->
        { ok_internal = false; state_internal = state; output_internal = "";
          gas_left_internal = gas; logs_internal = [] }
    | Some state' ->
        let code = State.code state' address in
        if String.length code = 0 then
          (* Plain value transfer. *)
          { ok_internal = true; state_internal = state'; output_internal = "";
            gas_left_internal = gas; logs_internal = [] }
        else run_code ~ctx ~state:state' ~caller ~address ~value ~data ~gas ~code ~depth
  end

and run_create ~ctx ~state ~caller ~value ~init_code ~gas ~depth =
  let failure =
    { ok_internal = false; state_internal = state; output_internal = "";
      gas_left_internal = 0; logs_internal = [] }
  in
  if depth > max_call_depth then (failure, "")
  else begin
    let nonce = State.nonce state caller in
    let addr = State.contract_address ~sender:caller ~nonce in
    let state = State.incr_nonce state caller in
    match State.transfer state ~from_:caller ~to_:addr value with
    | None -> ({ failure with gas_left_internal = gas }, addr)
    | Some state' -> (
        let res =
          run_code ~ctx ~state:state' ~caller ~address:addr ~value ~data:"" ~gas
            ~code:init_code ~depth
        in
        if not res.ok_internal then (res, addr)
        else begin
          let deposit = Gas.g_code_deposit_byte * String.length res.output_internal in
          if deposit > res.gas_left_internal then (failure, addr)
          else
            ( { res with
                state_internal = State.set_code res.state_internal addr res.output_internal;
                gas_left_internal = res.gas_left_internal - deposit;
                output_internal = "" },
              addr )
        end)
  end

and run_code ~ctx ~state ~caller ~address ~value ~data ~gas ~code ~depth =
  let f =
    {
      ctx; code;
      jumpdests = analyze_jumpdests code;
      stack = Machine.Stack.create ();
      mem = Machine.Memory.create ();
      pc = 0; gas; charged_words = 0; state;
      logs = []; returndata = "";
      caller; address; value; data; depth;
    }
  in
  match exec_frame f with
  | () ->
      (* unreachable: exec_frame only exits via exceptions *)
      assert false
  | exception Halt output ->
      { ok_internal = true; state_internal = f.state; output_internal = output;
        gas_left_internal = f.gas; logs_internal = f.logs }
  | exception Rev output ->
      { ok_internal = false; state_internal = state; output_internal = output;
        gas_left_internal = f.gas; logs_internal = [] }
  | exception (Fail _ | Machine.Stack_overflow_evm | Machine.Stack_underflow_evm) ->
      { ok_internal = false; state_internal = state; output_internal = "";
        gas_left_internal = 0; logs_internal = [] }

let result_of ~gas ~error r =
  {
    state = r.state_internal;
    success = r.ok_internal;
    output = r.output_internal;
    gas_used = gas - r.gas_left_internal;
    logs = List.rev r.logs_internal;
    reverted = (not r.ok_internal) && String.length r.output_internal > 0;
    error = (if r.ok_internal then None else Some error);
  }

let call ~ctx ~state ~caller ~address ~value ~data ~gas =
  result_of ~gas ~error:"call failed"
    (run_call ~ctx ~state ~caller ~address ~value ~data ~gas ~depth:0)

let create ~ctx ~state ~caller ~value ~init_code ~gas =
  let r, addr = run_create ~ctx ~state ~caller ~value ~init_code ~gas ~depth:0 in
  (result_of ~gas ~error:"create failed" r, addr)

let execute_code ~ctx ~state ~caller ~address ~value ~data ~gas ~code =
  result_of ~gas ~error:"execution failed"
    (run_code ~ctx ~state ~caller ~address ~value ~data ~gas ~code ~depth:0)
