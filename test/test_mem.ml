(* Tests for the virtual-memory substrate: page arithmetic, radix tree,
   VMA tree, page tables, ownership directory, page store, fault table and
   allocator. *)

open Dex_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Page arithmetic *)

let test_page_arith () =
  check_int "page of 0" 0 (Page.page_of_addr 0);
  check_int "page of 4095" 0 (Page.page_of_addr 4095);
  check_int "page of 4096" 1 (Page.page_of_addr 4096);
  check_int "base" 8192 (Page.base_of_page 2);
  check_int "offset" 123 (Page.offset_in_page (8192 + 123));
  check_int "align up" 8192 (Page.align_up 4097);
  check_int "align up aligned" 4096 (Page.align_up 4096);
  check_bool "aligned" true (Page.is_aligned 8192);
  check_bool "unaligned" false (Page.is_aligned 8193)

let test_page_ranges () =
  let first, last = Page.pages_of_range 4000 ~len:200 in
  check_int "straddles boundary first" 0 first;
  check_int "straddles boundary last" 1 last;
  Alcotest.check_raises "zero len"
    (Invalid_argument "Page.pages_of_range: len must be positive") (fun () ->
      ignore (Page.pages_of_range 0 ~len:0))

let prop_page_range_count =
  QCheck.Test.make ~name:"page range count matches enumeration" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 100_000))
    (fun (addr, len) ->
      let first, last = Page.pages_of_range addr ~len in
      first = addr / 4096
      && last = (addr + len - 1) / 4096)

(* ------------------------------------------------------------------ *)
(* Radix tree *)

let test_radix_basic () =
  let t = Radix_tree.create () in
  check_bool "initially absent" false (Radix_tree.mem t 42);
  Radix_tree.set t 42 "a";
  Radix_tree.set t 43 "b";
  Radix_tree.set t 42 "a2";
  Alcotest.(check (option string)) "get" (Some "a2") (Radix_tree.find t 42);
  check_int "length counts keys once" 2 (Radix_tree.length t);
  Radix_tree.remove t 42;
  check_bool "removed" false (Radix_tree.mem t 42);
  check_int "length after remove" 1 (Radix_tree.length t);
  Radix_tree.remove t 42 (* idempotent *);
  check_int "double remove" 1 (Radix_tree.length t)

let test_radix_sparse_keys () =
  let t = Radix_tree.create () in
  let keys = [ 0; 1; 511; 512; 513; 1 lsl 20; (1 lsl 36) - 1 ] in
  List.iteri (fun i k -> Radix_tree.set t k i) keys;
  List.iteri
    (fun i k ->
      Alcotest.(check (option int))
        (Printf.sprintf "key %d" k)
        (Some i) (Radix_tree.find t k))
    keys;
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Radix_tree.set: key 68719476736 out of range")
    (fun () -> Radix_tree.set t (1 lsl 36) 0)

let test_radix_iter_sorted () =
  let t = Radix_tree.create () in
  List.iter (fun k -> Radix_tree.set t k ()) [ 77; 3; 512; 100_000; 4 ];
  let keys = ref [] in
  Radix_tree.iter t (fun k () -> keys := k :: !keys);
  Alcotest.(check (list int)) "ascending order" [ 3; 4; 77; 512; 100_000 ]
    (List.rev !keys)

(* Lookups remember the last leaf they went through; hopping between
   leaves, and to keys with no leaf at all, must never answer from the
   wrong one. *)
let test_radix_leaf_hops () =
  let t = Radix_tree.create () in
  let find k = Radix_tree.find t k in
  let check name expected k =
    Alcotest.(check (option int)) name expected (find k)
  in
  Radix_tree.set t 5 1;
  check "first leaf" (Some 1) 5;
  check "neighbouring leaf absent" None 517;
  check "far key absent" None (5 + (512 * 512));
  check "back to the first leaf" (Some 1) 5;
  Radix_tree.set t 517 2;
  check "second leaf" (Some 2) 517;
  check "same slot, first leaf" (Some 1) 5;
  Radix_tree.remove t 517;
  check "removed" None 517;
  Radix_tree.remove t (5 + (512 * 512));
  check "removing an absent key keeps the rest" (Some 1) 5;
  check_int "length" 1 (Radix_tree.length t)

(* Keys of far-apart regions land in leaves of their own; iteration must
   still visit them in increasing key order, whatever the insertion order. *)
let test_radix_far_keys () =
  let t = Radix_tree.create () in
  let max_key = (1 lsl 36) - 1 in
  let vpn addr = Page.page_of_addr addr in
  let keys =
    [
      vpn Layout.stack_base;
      vpn Layout.heap_base;
      max_key;
      vpn Layout.text_base;
      vpn 0x7e00_0000_0000;
      vpn Layout.mmap_base;
      vpn Layout.heap_base + 1;
    ]
  in
  List.iter (fun k -> Radix_tree.set t k (k * 3)) keys;
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "key %d" k)
        (Some (k * 3)) (Radix_tree.find t k))
    keys;
  let sorted = List.sort Int.compare keys in
  let visited = ref [] in
  Radix_tree.iter t (fun k v ->
      check_int "iter value" (k * 3) v;
      visited := k :: !visited);
  Alcotest.(check (list int)) "iter ascending" sorted (List.rev !visited);
  Alcotest.(check (list int))
    "fold ascending" sorted
    (List.rev (Radix_tree.fold t ~init:[] ~f:(fun k _ acc -> k :: acc)))

let test_radix_length () =
  let t = Radix_tree.create () in
  let far = (1 lsl 36) - 1 in
  Radix_tree.set t 7 'a';
  Radix_tree.set t far 'b';
  check_int "set" 2 (Radix_tree.length t);
  Radix_tree.set t 7 'c';
  check_int "re-set" 2 (Radix_tree.length t);
  Radix_tree.remove t far;
  check_int "remove" 1 (Radix_tree.length t);
  Radix_tree.set t far 'd';
  check_int "re-set after remove" 2 (Radix_tree.length t);
  Alcotest.(check (option char)) "re-set value" (Some 'd') (Radix_tree.find t far)

let prop_radix_model =
  QCheck.Test.make ~name:"radix tree behaves like a hashtable" ~count:200
    QCheck.(list (pair (int_bound 10_000) (option (int_bound 100))))
    (fun ops ->
      let t = Radix_tree.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          match v with
          | Some v ->
              Radix_tree.set t k v;
              Hashtbl.replace model k v
          | None ->
              Radix_tree.remove t k;
              Hashtbl.remove model k)
        ops;
      Hashtbl.length model = Radix_tree.length t
      && Hashtbl.fold
           (fun k v ok -> ok && Radix_tree.find t k = Some v)
           model true)

(* Keys crowd the edges of leaves of any power-of-two size up to 512 (a
   multiple of 64 or of 512, plus or minus one) and the top of the key
   space, so a set or remove that lands in the wrong leaf, or an
   iteration that visits leaves out of order, shows against a sorted
   association list after every step. *)
let radix_edge_key =
  let max_key = (1 lsl 36) - 1 in
  QCheck.Gen.(
    oneof
      [
        map2 (fun m d -> (m * 64) + d) (int_bound 40) (int_range (-1) 1);
        map2 (fun m d -> (m * 512) + d) (int_bound 40) (int_range (-1) 1);
        map (fun d -> max_key - d) (int_bound 130);
      ]
    |> map (fun k -> max 0 k))

let prop_radix_sorted_map =
  let op = QCheck.Gen.(pair radix_edge_key (opt ~ratio:0.7 (int_bound 100))) in
  QCheck.Test.make ~name:"radix tree iterates like a sorted map" ~count:300
    QCheck.(
      make
        ~print:Print.(list (pair int (option int)))
        Gen.(list_size (int_range 0 60) op))
    (fun ops ->
      let t = Radix_tree.create () in
      let step model (k, v) =
        let model = List.remove_assoc k model in
        let model =
          match v with
          | Some v ->
              Radix_tree.set t k v;
              List.merge
                (fun (a, _) (b, _) -> Int.compare a b)
                [ (k, v) ] model
          | None ->
              Radix_tree.remove t k;
              model
        in
        let iterated = ref [] in
        Radix_tree.iter t (fun k v -> iterated := (k, v) :: !iterated);
        let folded =
          Radix_tree.fold t ~init:[] ~f:(fun k v acc -> (k, v) :: acc)
        in
        if
          not
            (List.for_all (fun (k, v) -> Radix_tree.find t k = Some v) model
            && Radix_tree.find t k = v
            && Radix_tree.length t = List.length model
            && List.rev !iterated = model
            && List.rev folded = model)
        then
          QCheck.Test.fail_reportf "after %d -> %s" k
            (match v with Some v -> string_of_int v | None -> "remove");
        model
      in
      ignore (List.fold_left step [] ops);
      true)

(* ------------------------------------------------------------------ *)
(* VMA tree *)

let page = 4096

let vma start pages perm tag =
  Vma.make ~start:(start * page) ~len:(pages * page) ~perm ~tag

let unmap start pages =
  Vma_tree.Unmap { start = start * page; len = pages * page }

let protect start pages perm =
  Vma_tree.Protect { start = start * page; len = pages * page; perm }

(* Each VMA as (first page, pages). *)
let spans t =
  List.map
    (fun v -> (v.Vma.start / page, v.Vma.len / page))
    (Vma_tree.to_list t)

let test_vma_tree_find () =
  let t = Vma_tree.create () in
  Vma_tree.insert t (vma 10 5 Perm.rw "heap");
  Vma_tree.insert t (vma 100 2 Perm.ro "text");
  (match Vma_tree.find t (12 * page) with
  | Some v -> Alcotest.(check string) "tag" "heap" v.Vma.tag
  | None -> Alcotest.fail "expected heap vma");
  check_bool "gap is unmapped" true (Vma_tree.find t (50 * page) = None);
  check_bool "before first" true (Vma_tree.find t 0 = None);
  check_bool "end exclusive" true (Vma_tree.find t (15 * page) = None)

(* [find] keeps its last hit; each change to the tree must drop it so the
   next lookup sees the new layout. *)
let test_vma_tree_find_after_change () =
  let t = Vma_tree.create () in
  let at p =
    Option.map (fun v -> (v.Vma.tag, v.Vma.start / page, v.Vma.perm = Perm.rw))
      (Vma_tree.find t (p * page))
  in
  let check name expected p =
    Alcotest.(check (option (triple string int bool))) name expected (at p)
  in
  Vma_tree.insert t (vma 10 5 Perm.rw "a");
  check "a found" (Some ("a", 10, true)) 12;
  Vma_tree.insert t (vma 20 5 Perm.rw "b");
  check "new VMA after insert" (Some ("b", 20, true)) 21;
  check "a still found" (Some ("a", 10, true)) 12;
  Vma_tree.apply t (protect 12 1 Perm.ro);
  check "protected middle" (Some ("a", 12, false)) 12;
  check "left fragment" (Some ("a", 10, true)) 11;
  Vma_tree.apply t (unmap 10 2);
  check "removed range" None 11;
  check "protected part survives" (Some ("a", 12, false)) 12;
  Vma_tree.apply t (unmap 12 1);
  check "removed after a hit" None 12;
  Vma_tree.apply t (Map (vma 12 1 Perm.rw "c"));
  check "mapped after a miss" (Some ("c", 12, true)) 12

let test_vma_tree_overlap_rejected () =
  let t = Vma_tree.create () in
  Vma_tree.insert t (vma 10 5 Perm.rw "a");
  Alcotest.check_raises "overlap"
    (Invalid_argument "Vma_tree.insert: overlapping VMA") (fun () ->
      Vma_tree.insert t (vma 14 2 Perm.rw "b"));
  (* Adjacent is fine. *)
  Vma_tree.insert t (vma 15 2 Perm.rw "c");
  check_int "two vmas" 2 (Vma_tree.count t)

let test_vma_tree_remove_splits () =
  let t = Vma_tree.create () in
  Vma_tree.insert t (vma 10 10 Perm.rw "big");
  Vma_tree.apply t (unmap 13 2);
  Alcotest.(check (list (pair int int))) "both sides kept" [ (10, 3); (15, 5) ]
    (spans t);
  Vma_tree.check_invariants t;
  check_int "split into two" 2 (Vma_tree.count t);
  check_bool "hole unmapped" true (Vma_tree.find t (13 * page) = None);
  check_bool "left intact" true (Vma_tree.find t (10 * page) <> None);
  check_bool "right intact" true (Vma_tree.find t (16 * page) <> None)

let test_vma_tree_remove_spanning () =
  let t = Vma_tree.create () in
  Vma_tree.insert t (vma 10 2 Perm.rw "a");
  Vma_tree.insert t (vma 12 2 Perm.rw "b");
  Vma_tree.insert t (vma 20 2 Perm.rw "c");
  Vma_tree.apply t (unmap 11 2);
  Alcotest.(check (list (pair int int))) "two VMAs cut" [ (10, 1); (13, 1); (20, 2) ]
    (spans t);
  Vma_tree.check_invariants t;
  (* a truncated to one page, b truncated to one page, c untouched. *)
  check_int "three vmas remain" 3 (Vma_tree.count t);
  check_bool "removed middle" true (Vma_tree.find t (11 * page) = None);
  check_bool "b tail remains" true (Vma_tree.find t (13 * page) <> None)

let test_vma_tree_protect () =
  let t = Vma_tree.create () in
  Vma_tree.insert t (vma 10 4 Perm.rw "a");
  Vma_tree.apply t (protect 11 2 Perm.ro);
  Vma_tree.check_invariants t;
  check_int "split into three" 3 (Vma_tree.count t);
  (match Vma_tree.find t (11 * page) with
  | Some v -> check_bool "downgraded" true (v.Vma.perm = Perm.ro)
  | None -> Alcotest.fail "vma missing");
  (match Vma_tree.find t (10 * page) with
  | Some v -> check_bool "left unchanged" true (v.Vma.perm = Perm.rw)
  | None -> Alcotest.fail "vma missing");
  (* A mapping replaces whatever the range held, across VMA ends. *)
  Vma_tree.apply t (Map (vma 12 3 Perm.none "b"));
  Alcotest.(check (list (pair int int))) "map replaces" [ (10, 1); (11, 1); (12, 3) ]
    (spans t);
  Alcotest.check_raises "unaligned range"
    (Invalid_argument "Vma_tree.apply: range must be page-aligned") (fun () ->
      Vma_tree.apply t (Unmap { start = page + 8; len = page }))

let prop_vma_tree_invariant =
  (* Random mixes of insert/remove keep the tree sorted and disjoint. *)
  QCheck.Test.make ~name:"vma tree stays disjoint under random ops" ~count:200
    QCheck.(
      list
        (pair bool (pair (int_range 0 200) (int_range 1 20))))
    (fun ops ->
      let t = Vma_tree.create () in
      List.iter
        (fun (is_insert, (start, pages)) ->
          if is_insert then
            try Vma_tree.insert t (vma start pages Perm.rw "x")
            with Invalid_argument _ -> ()
          else Vma_tree.apply t (unmap start pages))
        ops;
      Vma_tree.check_invariants t;
      true)

(* ------------------------------------------------------------------ *)
(* Page table *)

let test_page_table () =
  let pt = Page_table.create () in
  check_bool "invalid initially" false (Page_table.allows pt 7 Perm.Read);
  Page_table.set pt 7 Perm.Read;
  check_bool "read ok" true (Page_table.allows pt 7 Perm.Read);
  check_bool "write needs write" false (Page_table.allows pt 7 Perm.Write);
  Page_table.set pt 7 Perm.Write;
  check_bool "write ok" true (Page_table.allows pt 7 Perm.Write);
  check_bool "write implies read" true (Page_table.allows pt 7 Perm.Read);
  Page_table.downgrade pt 7;
  check_bool "downgraded" false (Page_table.allows pt 7 Perm.Write);
  Page_table.invalidate pt 7;
  check_bool "invalidated" false (Page_table.allows pt 7 Perm.Read);
  Page_table.downgrade pt 7 (* no-op on absent *)

let test_page_table_zap_range () =
  let pt = Page_table.create () in
  for p = 10 to 20 do
    Page_table.set pt p Perm.Write
  done;
  let n = Page_table.zap_range pt ~first:12 ~last:15 in
  check_int "zapped" 4 n;
  check_int "remaining" 7 (Page_table.count pt);
  check_bool "outside intact" true (Page_table.allows pt 11 Perm.Write);
  check_bool "inside gone" false (Page_table.allows pt 13 Perm.Read)

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory_default_origin () =
  let d = Directory.create ~origin:0 in
  (match Directory.state d 99 with
  | Directory.Exclusive 0 -> ()
  | _ -> Alcotest.fail "untracked pages belong to the origin");
  check_int "nothing tracked" 0 (Directory.tracked_pages d)

let restore d p st = ignore (Directory.apply d p (Restore st))

let test_directory_transitions () =
  let d = Directory.create ~origin:0 in
  restore d 5 (Some (Shared (Node_set.of_list [ 0; 2 ])));
  ignore (Directory.apply d 5 (Join [ 3 ]));
  (match Directory.state d 5 with
  | Directory.Shared readers ->
      Alcotest.(check (list int)) "readers" [ 0; 2; 3 ]
        (Node_set.to_list readers)
  | _ -> Alcotest.fail "expected shared");
  restore d 5 (Some (Exclusive 2));
  (match Directory.state d 5 with
  | Directory.Exclusive 2 -> ()
  | _ -> Alcotest.fail "expected exclusive 2");
  check_bool "valid copy at writer" true (Directory.has_valid_copy d 5 2);
  check_bool "no copy elsewhere" false (Directory.has_valid_copy d 5 0);
  check_bool "readers join no exclusive entry" true
    (Directory.apply d 5 (Join [ 1 ]) = Keep);
  Alcotest.check_raises "empty reader set"
    (Invalid_argument "Directory: empty reader set") (fun () ->
      restore d 5 (Some (Shared Node_set.empty)));
  Directory.check_invariants d

let test_directory_busy_lock () =
  let d = Directory.create ~origin:0 in
  let holder = Directory.try_lock d 9 in
  check_bool "lock" true (Option.is_some holder);
  check_bool "second lock NACKed" true (Directory.try_lock d 9 = None);
  check_bool "locked" true (Directory.locked d 9);
  Directory.unlock d (Option.get holder);
  let holder = Option.get (Directory.try_lock d 9) in
  Directory.unlock d holder;
  Alcotest.check_raises "double unlock"
    (Invalid_argument "Directory.unlock: page not locked") (fun () ->
      Directory.unlock d holder)

let prop_directory_invariants =
  QCheck.Test.make ~name:"directory invariants under random transitions"
    ~count:300
    QCheck.(list (pair (int_bound 50) (pair bool (int_bound 7))))
    (fun ops ->
      let d = Directory.create ~origin:0 in
      List.iter
        (fun (p, (write, node)) ->
          let holder = Option.get (Directory.try_lock d p) in
          let access = if write then Perm.Write else Perm.Read in
          (match
             Directory.apply d ~holder p
               (Grant { requester = node; access; home = 0; nodata = true })
           with
          | Plan { next; _ } -> restore d p next
          | _ -> Alcotest.fail "a grant under its lock was refused");
          Directory.unlock d holder)
        ops;
      Directory.check_invariants d;
      true)

(* The fence demotion of a page a grant holds locked (the survivor it
   names never got the bytes) waits for the holder's unlock, and the
   holder's own writes go through meanwhile. *)
let test_directory_demotion_waits_for_holder () =
  let d = Directory.create ~origin:0 in
  let demote p node = Directory.apply d p (Drop { node; dead = false }) in
  restore d 7 (Some (Exclusive 1));
  restore d 8 (Some (Shared (Node_set.of_list [ 1; 2 ])));
  let h7 = Option.get (Directory.try_lock d 7) in
  let h8 = Option.get (Directory.try_lock d 8) in
  check_bool "demotion of a locked entry deferred" true (demote 7 1 = Deferred);
  check_bool "reader demotion deferred" true (demote 8 1 = Deferred);
  check_bool "still owned" true (Directory.state d 7 = Exclusive 1);
  check_bool "a dead node's drop goes through the lock" true
    (Directory.apply d 8 (Drop { node = 2; dead = true })
    = Dropped (Reader, Some (Shared (Node_set.of_list [ 1 ]))));
  check_bool "a grant without the lock is refused" true
    (Directory.apply d 7
       (Grant { requester = 2; access = Perm.Write; home = 0; nodata = true })
    = Refused);
  let both = Directory.Shared (Node_set.of_list [ 1; 3 ]) in
  ignore (Directory.apply d ~holder:h8 8 (Restore (Some both)));
  check_bool "the holder's write lands" true (Directory.state d 8 = both);
  Directory.unlock d h7;
  check_bool "demoted owner leaves the page untracked" false
    (Directory.is_tracked d 7);
  Directory.unlock d h8;
  check_bool "demoted reader leaves the set" true
    (Directory.state d 8 = Shared (Node_set.of_list [ 3 ]));
  check_bool "unlocked" false (Directory.locked d 8)

(* The oracles for one [Directory.step] case; [pre] is the entry's state,
   untracked read as [Exclusive origin]. *)
let check_step ~case ~nodes ~origin entry lock event out =
  let open Directory in
  let fail what = Alcotest.fail (what ^ ": " ^ case) in
  let pre = Option.value entry ~default:(Exclusive origin) in
  let holds node =
    match pre with Exclusive o -> o = node | Shared rs -> Node_set.mem rs node
  in
  (* A busy entry changes only through its holder or by a dead node's
     drop; a grant needs the lock. *)
  (match (lock, event, out) with
  | Mine, Grant _, Plan _ | (Free | Theirs), Grant _, Refused -> ()
  | _, Grant _, _ -> fail "grant outcome"
  | Theirs, Drop { dead = true; _ }, Deferred -> fail "dead drop deferred"
  | Theirs, Drop { dead = true; _ }, _ | Theirs, _, Deferred -> ()
  | Theirs, _, _ -> fail "busy entry changed"
  | _, _, Deferred -> fail "free entry deferred"
  | _ -> ());
  (* Shared is never empty. *)
  (match out with
  | Set (Some (Shared s)) | Dropped (_, Some (Shared s)) ->
      if Node_set.is_empty s then fail "empty Shared"
  | Plan { next = Some (Shared s); _ } ->
      if Node_set.is_empty s then fail "empty Shared"
  | _ -> ());
  (* A drop reports the role the node held; a dead node's page stays
     tracked. *)
  (match (event, out) with
  | Drop { dead = true; _ }, Dropped (_, None) -> fail "dead drop untracked"
  | Drop { node; _ }, Dropped (Owner, _) ->
      if entry = None || pre <> Exclusive node then fail "owner"
  | Drop { node; _ }, Dropped (Reader, _) ->
      if pre = Exclusive node || not (holds node) then fail "reader"
  | Drop { node; _ }, Keep -> if entry <> None && holds node then fail "absent"
  | _ -> ());
  match (event, out) with
  | Grant { requester; access; home; _ }, Plan p ->
      (* A no-data grant goes only to a holder of a valid copy, or to the
         home. *)
      if not (p.ships_data || requester = home || holds requester) then
        fail "no-data grant";
      (* Single writer: after the actions a writer is alone, and the
         installed state names every node left holding a copy
         (0: none, 1: read, 2: write). *)
      let after node =
        let copy =
          if pre = Exclusive node then 2 else if holds node then 1 else 0
        in
        let copy =
          match p.reclaim with
          | Downgrade o when o = node -> min copy 1
          | Invalidate o when o = node -> 0
          | _ -> copy
        in
        let revoked =
          Node_set.mem p.revoke node || (p.invalidate_home && node = home)
        in
        let copy = if revoked then 0 else copy in
        if node <> requester then copy
        else max copy (if access = Perm.Write then 2 else 1)
      in
      let final = Option.value p.next ~default:pre in
      (* The installed entry lets the requester map what it asked for. *)
      (match (access, Directory.access final requester) with
      | _, Some Perm.Write | Perm.Read, Some Perm.Read -> ()
      | _ -> fail "requester's access");
      let holders = List.filter (fun k -> after k > 0) nodes in
      (match List.filter (fun k -> after k = 2) nodes with
      | [] -> ()
      | [ w ] ->
          if holders <> [ w ] || final <> Exclusive w then fail "writer alone"
      | _ -> fail "two writers");
      List.iter
        (fun k ->
          match final with
          | Exclusive o -> if o <> k then fail "holder named"
          | Shared rs -> if not (Node_set.mem rs k) then fail "holder named")
        holders
  | _ -> ()

(* Every non-empty reader set of [nodes], and every entry state: untracked,
   every owner, every reader set. *)
let entry_states nodes =
  let n = List.length nodes in
  let sets =
    List.init ((1 lsl n) - 1) (fun m ->
        Node_set.of_list
          (List.filter (fun i -> (m + 1) land (1 lsl i) <> 0) nodes))
  in
  ( sets,
    (None :: List.map (fun k -> Some (Directory.Exclusive k)) nodes)
    @ List.map (fun s -> Some (Directory.Shared s)) sets )

(* [Directory.step] over every entry state of 2-4 nodes, every lock state
   and every event with every argument, for every origin. *)
let test_directory_step_exhaustive () =
  for n = 2 to 4 do
    let nodes = List.init n Fun.id in
    let sets, states = entry_states nodes in
    let grants node =
      List.concat_map
        (fun (home, access, nodata) ->
          [ Directory.Grant { requester = node; access; home; nodata } ])
        (List.concat_map
           (fun home ->
             List.concat_map
               (fun access -> [ (home, access, true); (home, access, false) ])
               [ Perm.Read; Perm.Write ])
           nodes)
    in
    let events =
      List.concat_map
        (fun node ->
          Directory.Drop { node; dead = true }
          :: Drop { node; dead = false }
          :: grants node)
        nodes
      @ Directory.Join []
        :: List.map (fun s -> Directory.Join (Node_set.to_list s)) sets
      @ List.map (fun st -> Directory.Restore st) states
    in
    List.iter
      (fun origin ->
        let case = Printf.sprintf "%d nodes, origin %d" n origin in
        List.iter
          (fun entry ->
            List.iter
              (fun lock ->
                List.iter
                  (fun event ->
                    check_step ~case ~nodes ~origin entry lock event
                      (Directory.step ~origin entry lock event))
                  events)
              [ Directory.Free; Mine; Theirs ])
          states)
      nodes
  done

(* ------------------------------------------------------------------ *)
(* Node set *)

let test_node_set () =
  let s = Node_set.of_list [ 3; 1; 4; 1 ] in
  check_int "cardinal dedups" 3 (Node_set.cardinal s);
  check_bool "mem" true (Node_set.mem s 4);
  check_bool "not mem" false (Node_set.mem s 0);
  let s = Node_set.remove s 4 in
  Alcotest.(check (list int)) "sorted list" [ 1; 3 ] (Node_set.to_list s);
  check_bool "empty" true (Node_set.is_empty Node_set.empty);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Node_set: node id out of range") (fun () ->
      ignore (Node_set.add Node_set.empty 63))

(* [Directory.access] over every entry state of 2-4 nodes and every node,
   for every origin: [Write] for the owner, [Read] for a reader, nothing
   for anyone else, and a copy exactly where [has_valid_copy] finds one. *)
let test_directory_access_exhaustive () =
  for n = 2 to 4 do
    let nodes = List.init n Fun.id in
    let _, states = entry_states nodes in
    List.iter
      (fun origin ->
        List.iter
          (fun entry ->
            let d = Directory.create ~origin in
            ignore (Directory.apply d 1 (Restore entry));
            let pre = Directory.state d 1 in
            List.iter
              (fun node ->
                let case =
                  Printf.sprintf "%d nodes, origin %d, node %d" n origin node
                in
                let expected =
                  match pre with
                  | Exclusive o when o = node -> Some Perm.Write
                  | Shared rs when Node_set.mem rs node -> Some Perm.Read
                  | Exclusive _ | Shared _ -> None
                in
                let got = Directory.access pre node in
                check_bool ("access: " ^ case) true (got = expected);
                check_bool ("has_valid_copy: " ^ case) (Option.is_some got)
                  (Directory.has_valid_copy d 1 node))
              nodes)
          states)
      nodes
  done

(* ------------------------------------------------------------------ *)
(* Page store *)

let test_page_store_rw () =
  let ps = Page_store.create () in
  Alcotest.(check int64) "zero page" 0L (Page_store.read_i64 ps 3 ~offset:96);
  Page_store.write_i64 ps 3 ~offset:8 0x1122334455667788L;
  Alcotest.(check int64) "read back" 0x1122334455667788L
    (Page_store.read_i64 ps 3 ~offset:8);
  check_int "materialized" 1 (Page_store.materialized ps)

let test_page_store_ship () =
  let a = Page_store.create () and b = Page_store.create () in
  Page_store.write_i64 a 7 ~offset:0 42L;
  let data = Page_store.snapshot a 7 in
  Page_store.install b 7 data;
  Alcotest.(check int64) "installed" 42L (Page_store.read_i64 b 7 ~offset:0);
  (* Snapshot is a copy: later writes at the source don't leak. *)
  Page_store.write_i64 a 7 ~offset:0 43L;
  Alcotest.(check int64) "no aliasing" 42L (Page_store.read_i64 b 7 ~offset:0);
  Page_store.drop b 7;
  check_int "dropped" 0 (Page_store.materialized b)

let test_page_store_bounds () =
  let ps = Page_store.create () in
  Alcotest.check_raises "offset out of page"
    (Invalid_argument "Page_store.read_i64: offset out of page") (fun () ->
      ignore (Page_store.read_i64 ps 0 ~offset:4090));
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Page_store.read_i64: misaligned offset") (fun () ->
      ignore (Page_store.read_i64 ps 0 ~offset:4))

(* Sharing rules against a model in which every snapshot is a deep copy.
   Random snapshot/take/install/write/read/fold/drop over three stores and
   two pages; images taken out park in three slots (messages, log
   entries), and an owned one is adopted, which consumes it. After every
   step each parked image must still hold the bytes it was taken with,
   and each store must hold exactly the model's pages. *)
let prop_page_store_sharing =
  let i64_offsets = [| 0; 8; Page.size - 8 |] in
  QCheck.Test.make ~name:"shared images read like deep copies" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 10 60)
        (triple (int_bound 6) (int_bound 17) (int_bound 1023)))
    (fun ops ->
      let stores = Array.init 3 (fun _ -> Page_store.create ()) in
      let model = Array.init 3 (fun _ -> Hashtbl.create 2) in
      (* slot -> (the parked buffer, its model bytes, owned) *)
      let slots = Array.make 3 None in
      let model_page s p =
        match Hashtbl.find_opt model.(s) p with
        | Some b -> b
        | None ->
            let b = Bytes.make Page.size '\000' in
            Hashtbl.replace model.(s) p b;
            b
      in
      let ok = ref true in
      let expect c = if not c then ok := false in
      List.iter
        (fun (kind, where, v) ->
          let s = where / 6 and p = where / 3 mod 2 and slot = where mod 3 in
          let ps = stores.(s) in
          (match kind with
          | 0 ->
              let b = Page_store.snapshot ps p in
              slots.(slot) <- Some (b, Bytes.copy (model_page s p), false)
          | 1 -> (
              match Page_store.take ps p with
              | Some (b, owned) ->
                  expect (Hashtbl.mem model.(s) p);
                  slots.(slot) <- Some (b, Bytes.copy (model_page s p), owned);
                  Hashtbl.remove model.(s) p
              | None -> expect (not (Hashtbl.mem model.(s) p)))
          | 2 -> (
              match slots.(slot) with
              | None -> ()
              | Some (b, m, owned) ->
                  if owned then begin
                    Page_store.adopt ps p b;
                    slots.(slot) <- None
                  end
                  else Page_store.install ps p b;
                  Hashtbl.replace model.(s) p (Bytes.copy m))
          | 3 ->
              let offset = i64_offsets.(v mod Array.length i64_offsets) in
              let x = Int64.of_int (v * 7919) in
              Page_store.write_i64 ps p ~offset x;
              Bytes.set_int64_le (model_page s p) offset x
          | 4 ->
              let offset = i64_offsets.(v mod Array.length i64_offsets) in
              expect
                (Page_store.read_i64 ps p ~offset
                = Bytes.get_int64_le (model_page s p) offset)
          | 5 -> (
              let images =
                Page_store.fold ps ~init:[] ~f:(fun q b acc -> (q, b) :: acc)
              in
              match List.assoc_opt p images with
              | Some b ->
                  slots.(slot) <- Some (b, Bytes.copy (model_page s p), false)
              | None -> expect (not (Hashtbl.mem model.(s) p)))
          | _ ->
              Page_store.drop ps p;
              Hashtbl.remove model.(s) p);
          Array.iter
            (function
              | Some (b, m, _) -> expect (Bytes.equal b m) | None -> ())
            slots;
          Array.iteri
            (fun s ps ->
              expect (Page_store.materialized ps = Hashtbl.length model.(s));
              Hashtbl.iter
                (fun p m ->
                  expect (Page_store.mem ps p);
                  expect
                    (Page_store.read_i64 ps p ~offset:0
                     = Bytes.get_int64_le m 0
                    && Page_store.read_i64 ps p ~offset:(Page.size - 8)
                       = Bytes.get_int64_le m (Page.size - 8)))
                model.(s))
            stores)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fault table *)

let test_fault_table_coalescing () =
  let e = Dex_sim.Engine.create () in
  let ft = Fault_table.create e in
  let outcomes = ref [] in
  for i = 1 to 3 do
    Dex_sim.Engine.spawn e (fun () ->
        match Fault_table.enter ft ~vpn:9 ~access:Perm.Read with
        | Fault_table.Leader ->
            Dex_sim.Engine.delay e 1000;
            let followers = Fault_table.finish ft ~vpn:9 in
            outcomes := Printf.sprintf "leader%d/%d" i followers :: !outcomes
        | Fault_table.Follower ->
            outcomes := Printf.sprintf "follower%d" i :: !outcomes
        | Fault_table.Conflict -> Alcotest.fail "unexpected conflict")
  done;
  Dex_sim.Engine.run_until_quiescent e;
  Alcotest.(check (list string))
    "one leader, two followers"
    [ "follower2"; "follower3"; "leader1/2" ]
    (List.sort compare !outcomes)

let test_fault_table_conflict () =
  let e = Dex_sim.Engine.create () in
  let ft = Fault_table.create e in
  let events = ref [] in
  Dex_sim.Engine.spawn e (fun () ->
      match Fault_table.enter ft ~vpn:9 ~access:Perm.Read with
      | Fault_table.Leader ->
          Dex_sim.Engine.delay e 1000;
          ignore (Fault_table.finish ft ~vpn:9);
          events := "leader-done" :: !events
      | _ -> Alcotest.fail "expected leader");
  Dex_sim.Engine.spawn e (fun () ->
      match Fault_table.enter ft ~vpn:9 ~access:Perm.Write with
      | Fault_table.Conflict -> events := "conflict-retry" :: !events
      | _ -> Alcotest.fail "expected conflict");
  Dex_sim.Engine.run_until_quiescent e;
  Alcotest.(check (list string))
    "conflicter woken after leader"
    [ "leader-done"; "conflict-retry" ]
    (List.rev !events)

let test_fault_table_independent_pages () =
  let e = Dex_sim.Engine.create () in
  let ft = Fault_table.create e in
  Dex_sim.Engine.spawn e (fun () ->
      (match Fault_table.enter ft ~vpn:1 ~access:Perm.Read with
      | Fault_table.Leader -> ()
      | _ -> Alcotest.fail "expected leader p1");
      (match Fault_table.enter ft ~vpn:2 ~access:Perm.Read with
      | Fault_table.Leader -> ()
      | _ -> Alcotest.fail "expected leader p2");
      check_int "two ongoing" 2 (Fault_table.ongoing ft);
      ignore (Fault_table.finish ft ~vpn:1);
      ignore (Fault_table.finish ft ~vpn:2);
      check_int "none ongoing" 0 (Fault_table.ongoing ft));
  Dex_sim.Engine.run_until_quiescent e

let test_fault_table_finish_without_enter () =
  let e = Dex_sim.Engine.create () in
  let ft = Fault_table.create e in
  Alcotest.check_raises "finish without enter"
    (Invalid_argument "Fault_table.finish: no ongoing fault") (fun () ->
      ignore (Fault_table.finish ft ~vpn:5))

(* ------------------------------------------------------------------ *)
(* Allocator / layout *)

let test_allocator_packing () =
  let a = Allocator.create () in
  let x = Allocator.malloc a ~bytes:100 ~tag:"x" in
  let y = Allocator.malloc a ~bytes:100 ~tag:"y" in
  check_bool "malloc packs on the same page" true
    (Page.page_of_addr x = Page.page_of_addr y);
  let z = Allocator.memalign a ~align:4096 ~bytes:100 ~tag:"z" in
  check_bool "memalign page-aligned" true (Page.is_aligned z);
  check_bool "memalign isolates" true
    (Page.page_of_addr z <> Page.page_of_addr y)

let test_allocator_object_registry () =
  let a = Allocator.create () in
  let x = Allocator.malloc a ~bytes:256 ~tag:"centers" in
  (match Allocator.object_at a (x + 128) with
  | Some ("centers", base, 256) -> check_int "base" x base
  | _ -> Alcotest.fail "object not found");
  check_bool "gap has no object" true (Allocator.object_at a (x + 4096) = None)

let test_allocator_static_vs_heap () =
  let a = Allocator.create () in
  let g = Allocator.alloc_static a ~bytes:64 ~tag:"flag" () in
  check_bool "globals segment" true
    (g >= Layout.globals_base && g < Layout.globals_base + Layout.globals_size);
  let h = Allocator.malloc a ~bytes:64 ~tag:"buf" in
  check_bool "heap segment" true
    (h >= Layout.heap_base && h < Layout.heap_base + Layout.heap_size)

let test_layout_stacks_disjoint () =
  let s0 = Layout.stack_for ~tid:0 and s1 = Layout.stack_for ~tid:1 in
  check_bool "no overlap" true (s0 + Layout.stack_size <= s1);
  check_int "stack top" (s0 + Layout.stack_size) (Layout.stack_top ~tid:0);
  Alcotest.check_raises "tid out of range"
    (Invalid_argument "Layout: bad thread id") (fun () ->
      ignore (Layout.stack_for ~tid:Layout.max_threads))

(* Which changes narrow access, over a tree holding one VMA with [o]. *)
let test_perm_downgrade_table () =
  let narrows o change =
    let t = Vma_tree.create () in
    Vma_tree.insert t (vma 10 4 o "a");
    Vma_tree.narrows t change
  in
  let d o n = narrows o (protect 11 2 n) in
  check_bool "rw->ro downgrades" true (d Perm.rw Perm.ro);
  check_bool "rw->none downgrades" true (d Perm.rw Perm.none);
  check_bool "ro->rw permissive" false (d Perm.ro Perm.rw);
  check_bool "ro->ro unchanged" false (d Perm.ro Perm.ro);
  check_bool "none->ro permissive" false (d Perm.none Perm.ro);
  check_bool "unmap narrows" true (narrows Perm.none (unmap 11 2));
  check_bool "map widens" false (narrows Perm.rw (Map (vma 20 1 Perm.none "b")))

let test_allocator_exhaustion () =
  let a = Allocator.create () in
  Alcotest.check_raises "global segment bounded"
    (Failure "Allocator: global segment exhausted") (fun () ->
      for _ = 1 to 100 do
        ignore
          (Allocator.alloc_static a ~bytes:(Layout.globals_size / 10)
             ~tag:"big" ())
      done);
  Alcotest.check_raises "heap bounded" (Failure "Allocator: heap exhausted")
    (fun () ->
      for _ = 1 to 100 do
        ignore (Allocator.malloc a ~bytes:(Layout.heap_size / 10) ~tag:"big")
      done)

let test_radix_fold_ordered () =
  let t = Radix_tree.create () in
  List.iter (fun k -> Radix_tree.set t k (k * 2)) [ 9; 1; 5 ];
  let acc = Radix_tree.fold t ~init:[] ~f:(fun k v acc -> (k, v) :: acc) in
  Alcotest.(check (list (pair int int)))
    "fold visits in key order" [ (9, 18); (5, 10); (1, 2) ] acc

let qsuite = List.map QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Allocation budgets *)

(* Words allocated so far, both heaps: [Gc.minor_words] alone misses
   blocks too large for the minor heap, such as a 512-slot array. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* An empty table is its record: the leaf table comes with the first key
   (39 words when every table built its leaf table at creation). *)
let test_radix_create_budget () =
  let w0 = allocated_words () in
  let t = Sys.opaque_identity (Radix_tree.create ()) in
  let words = allocated_words () -. w0 in
  check_bool
    (Printf.sprintf "%.0f words per create (at most 17)" words)
    true (words <= 17.);
  check_int "empty" 0 (Radix_tree.length t)

(* Heap words allocated directly in the major heap so far, promotions
   left out. *)
let major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* The first key of a region makes its leaf (and, in an empty table, the
   leaf table); both must be born in the minor heap, so a short-lived
   table's leaves die there. *)
let test_radix_young_leaf_budget () =
  let first_set t key =
    let w0 = allocated_words () and m0 = major_words () in
    Radix_tree.set t key 1;
    let words = allocated_words () -. w0 and major = major_words () -. m0 in
    check_bool
      (Printf.sprintf "%.0f major-heap words for a fresh region (none)" major)
      true (major = 0.);
    check_bool
      (Printf.sprintf "%.0f words for a fresh region (under 256)" words)
      true (words < 256.)
  in
  let t = Radix_tree.create () in
  first_set t (Page.page_of_addr Layout.heap_base);
  first_set t (Page.page_of_addr Layout.stack_base);
  check_int "two keys" 2 (Radix_tree.length t)

(* Hits alternate between two leaves, so every lookup passes the last-leaf
   cache and reaches the leaf table; misses look up a region with no leaf. *)
let test_radix_find_budget () =
  let t = Radix_tree.create () in
  let a = Page.page_of_addr Layout.heap_base
  and b = Page.page_of_addr Layout.stack_base
  and absent = Page.page_of_addr Layout.mmap_base in
  Radix_tree.set t a 1;
  Radix_tree.set t b 2;
  let words_for key =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1_000 do
      ignore (Sys.opaque_identity (Radix_tree.find t a));
      ignore (Sys.opaque_identity (Radix_tree.find t key))
    done;
    Gc.minor_words () -. w0
  in
  let hit = words_for b and miss = words_for absent in
  check_bool (Printf.sprintf "%.0f words for 2000 hits" hit) true (hit = 0.);
  check_bool
    (Printf.sprintf "%.0f words for 1000 hits + 1000 misses" miss)
    true (miss = 0.)

let () =
  Alcotest.run "dex_mem"
    [
      ( "page",
        [
          Alcotest.test_case "arithmetic" `Quick test_page_arith;
          Alcotest.test_case "ranges" `Quick test_page_ranges;
        ]
        @ qsuite [ prop_page_range_count ] );
      ( "radix_tree",
        [
          Alcotest.test_case "basic ops" `Quick test_radix_basic;
          Alcotest.test_case "sparse keys" `Quick test_radix_sparse_keys;
          Alcotest.test_case "sorted iteration" `Quick test_radix_iter_sorted;
          Alcotest.test_case "leaf hops" `Quick test_radix_leaf_hops;
          Alcotest.test_case "far keys" `Quick test_radix_far_keys;
          Alcotest.test_case "length" `Quick test_radix_length;
        ]
        @ qsuite [ prop_radix_model; prop_radix_sorted_map ] );
      ( "vma_tree",
        [
          Alcotest.test_case "find" `Quick test_vma_tree_find;
          Alcotest.test_case "overlap rejected" `Quick
            test_vma_tree_overlap_rejected;
          Alcotest.test_case "remove splits" `Quick test_vma_tree_remove_splits;
          Alcotest.test_case "remove spanning" `Quick
            test_vma_tree_remove_spanning;
          Alcotest.test_case "protect splits" `Quick test_vma_tree_protect;
          Alcotest.test_case "find after change" `Quick
            test_vma_tree_find_after_change;
        ]
        @ qsuite [ prop_vma_tree_invariant ] );
      ( "page_table",
        [
          Alcotest.test_case "access levels" `Quick test_page_table;
          Alcotest.test_case "zap range" `Quick test_page_table_zap_range;
        ] );
      ( "directory",
        [
          Alcotest.test_case "origin default" `Quick
            test_directory_default_origin;
          Alcotest.test_case "transitions" `Quick test_directory_transitions;
          Alcotest.test_case "busy lock" `Quick test_directory_busy_lock;
        ]
        @ qsuite [ prop_directory_invariants ] );
      ( "ownership",
        [
          Alcotest.test_case "every state, lock and event" `Quick
            test_directory_step_exhaustive;
          Alcotest.test_case "access over every state and node" `Quick
            test_directory_access_exhaustive;
          Alcotest.test_case "fence demotion waits for the holder" `Quick
            test_directory_demotion_waits_for_holder;
        ] );
      ("node_set", [ Alcotest.test_case "set ops" `Quick test_node_set ]);
      ( "page_store",
        [
          Alcotest.test_case "read/write" `Quick test_page_store_rw;
          Alcotest.test_case "snapshot/install" `Quick test_page_store_ship;
          Alcotest.test_case "bounds" `Quick test_page_store_bounds;
        ]
        @ qsuite [ prop_page_store_sharing ] );
      ( "fault_table",
        [
          Alcotest.test_case "leader/follower coalescing" `Quick
            test_fault_table_coalescing;
          Alcotest.test_case "access-type conflict" `Quick
            test_fault_table_conflict;
          Alcotest.test_case "independent pages" `Quick
            test_fault_table_independent_pages;
          Alcotest.test_case "finish without enter" `Quick
            test_fault_table_finish_without_enter;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "packing vs memalign" `Quick
            test_allocator_packing;
          Alcotest.test_case "object registry" `Quick
            test_allocator_object_registry;
          Alcotest.test_case "segments" `Quick test_allocator_static_vs_heap;
          Alcotest.test_case "stack layout" `Quick test_layout_stacks_disjoint;
          Alcotest.test_case "exhaustion" `Quick test_allocator_exhaustion;
        ] );
      ( "budget",
        [
          Alcotest.test_case "radix create" `Quick test_radix_create_budget;
          Alcotest.test_case "a fresh region's leaf is born young" `Quick
            test_radix_young_leaf_budget;
          Alcotest.test_case "radix find" `Quick test_radix_find_budget;
        ] );
      ( "misc",
        [
          Alcotest.test_case "perm downgrade table" `Quick
            test_perm_downgrade_table;
          Alcotest.test_case "radix fold ordered" `Quick test_radix_fold_ordered;
        ] );
    ]
