type t = Host.t Srm.Proto.group

let deploy ?(config = Host.default_config) ?owned ?domain ~network ~params ~n_packets ~period () =
  Srm.Proto.deploy_with ?owned ~network ~n_packets ~period ~on_packet:Host.on_packet ~srm:Host.srm
    ~create:(fun ~self ~recoveries ->
      Host.create ?domain ~network ~self ~params ~config ~n_packets ~period ~recoveries ())
    ()

let start = Srm.Proto.start

let add_stream = Srm.Proto.add_stream

let host = Srm.Proto.host

let members = Srm.Proto.members

let counters = Srm.Proto.counters

let recoveries = Srm.Proto.recoveries

let network = Srm.Proto.network

let expedited_requests t = Stats.Counters.total (counters t) Stats.Counters.Exp_rqst

let expedited_replies t = Stats.Counters.total (counters t) Stats.Counters.Exp_repl
