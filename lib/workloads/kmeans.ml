module W = Machine.Workload
open Common

let dims = 4

let make ~clusters ~name =
  let layout = Layout.create () in
  let dir = Layout.alloc_words ~region:"km.dir" layout clusters in
  let centers = Array.init clusters (fun _ -> Layout.alloc_line ~region:"km.center" layout) in
  let members = Array.init clusters (fun _ -> Layout.alloc_line ~region:"km.members" layout) in
  let member_dir = Layout.alloc_words ~region:"km.mdir" layout clusters in
  let delta = Layout.alloc_line ~region:"km.delta" layout in
  let regions = Layout.extents layout in
  let add_point =
    dir_update_ar ~id:0 ~name:"add_point" ~dir_region:"km.dir" ~record_region:"km.center"
      ~fields:
        [ (0, `Add_reg 1); (1, `Add_reg 2); (2, `Add_reg 3); (3, `Add_reg 4); (dims, `Add_reg 5) ]
      ~regions ()
  in
  let update_membership =
    dir_update_ar ~id:1 ~name:"update_membership" ~dir_region:"km.mdir" ~record_region:"km.members"
      ~fields:[ (0, `Add_reg 1); (1, `Add_reg 2) ] ~regions ()
  in
  let update_delta = fetch_add_ar ~id:2 ~name:"update_delta" ~region:"km.delta" ~regions () in
  let setup store _rng =
    Array.iteri
      (fun k base ->
        Mem.Store.write store (dir + k) base;
        Mem.Store.write store (member_dir + k) members.(k);
        Mem.Store.fill store base ~len:(dims + 1) 0;
        Mem.Store.fill store members.(k) ~len:2 0)
      centers;
    Mem.Store.write store delta 0
  in
  let make_driver ~tid:_ ~threads:_ _store rng () =
    let k = Simrt.Rng.zipf rng ~n:clusters ~theta:zipf_theta_light in
    let dice = Simrt.Rng.float rng 1.0 in
    if dice < 0.7 then
      W.op ~lock_id:(k + 1) add_point
        [
          (0, dir + k);
          (1, Simrt.Rng.int rng 100);
          (2, Simrt.Rng.int rng 100);
          (3, Simrt.Rng.int rng 100);
          (4, Simrt.Rng.int rng 100);
          (5, 1);
        ]
    else if dice < 0.9 then
      W.op ~lock_id:(k + 1) update_membership [ (0, member_dir + k); (1, 1); (2, 1) ]
    else W.op update_delta [ (0, delta); (1, 1) ]
  in
  {
    W.name = name;
    description = "centroid accumulation via a read-only centre directory";
    ars = [ add_point; update_membership; update_delta ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let high = make ~clusters:6 ~name:"kmeans-h"

let low = make ~clusters:48 ~name:"kmeans-l"
