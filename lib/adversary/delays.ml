module Network = Fruitchain_net.Network

module Null_max = struct
  type t = unit

  let name = "null-max-delay"
  let create _ctx = ()
  let schedule_honest () _msg ~recipient:_ = Network.Max_delay
  let act () ~round:_ ~honest_broadcasts:_ = ()
end
