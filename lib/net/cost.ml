type category = Data | Request | Reply | Exp_request | Exp_reply | Session

type cast = Unicast | Multicast | Subcast

let category_index = function
  | Data -> 0
  | Request -> 1
  | Reply -> 2
  | Exp_request -> 3
  | Exp_reply -> 4
  | Session -> 5

let cast_index = function Unicast -> 0 | Multicast -> 1 | Subcast -> 2

let n_categories = 6

let n_casts = 3

type t = { sends : int array; crossings : int array }

let create () =
  { sends = Array.make (n_categories * n_casts) 0; crossings = Array.make (n_categories * n_casts) 0 }

let slot cat cast = (category_index cat * n_casts) + cast_index cast

let category_of (p : Packet.t) =
  match p.payload with
  | Packet.Data _ -> Data
  | Packet.Request _ -> Request
  | Packet.Reply { expedited; _ } -> if expedited then Exp_reply else Reply
  | Packet.Exp_request _ -> Exp_request
  | Packet.Session _ -> Session

let record_send t cat cast = t.sends.(slot cat cast) <- t.sends.(slot cat cast) + 1

let record_crossing t cat cast = t.crossings.(slot cat cast) <- t.crossings.(slot cat cast) + 1

let sends t cat cast = t.sends.(slot cat cast)

let crossings t cat cast = t.crossings.(slot cat cast)

let total_crossings t cat =
  crossings t cat Unicast + crossings t cat Multicast + crossings t cat Subcast

let retransmission_overhead t = total_crossings t Reply + total_crossings t Exp_reply

let control_overhead t ~multicast =
  if multicast then crossings t Request Multicast + crossings t Exp_request Multicast
  else crossings t Request Unicast + crossings t Exp_request Unicast

let merge a b =
  {
    sends = Array.map2 ( + ) a.sends b.sends;
    crossings = Array.map2 ( + ) a.crossings b.crossings;
  }
