(** Message types of the scale-optimized PBFT baseline (Castro-Liskov
    with public-key signed server messages, the paper's comparison
    system).  Requests are shared with {!Sbft_core.Types}. *)

type request = Sbft_core.Types.request

type msg =
  | Request of request
  | Pre_prepare of { seq : int; view : int; reqs : request list }
  | Prepare of { seq : int; view : int; h : string; replica : int }
  | Commit of { seq : int; view : int; h : string; replica : int }
  | Reply of {
      view : int;
      replica : int;
      client : int;
      timestamp : int;
      seq : int;
      value : string;
    }
  | Checkpoint of { seq : int; digest : string; replica : int }
  | View_change of {
      view : int;  (** view being abandoned *)
      ls : int;
      prepared : (int * int * request list) list;
          (** (seq, view, reqs) with a prepared certificate *)
      replica : int;
    }
  | New_view of { view : int; pre_prepares : (int * request list) list }

val size : msg -> int
val kind : msg -> string
