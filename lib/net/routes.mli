(** Static routing arrays for a multicast tree.

    The tree topology is immutable after {!Network} construction, so
    every walk the delivery primitives make — whole-tree floods,
    downward subcasts and unicast paths — can be replayed from a few
    flat arrays built once, with no per-packet list construction and
    nothing memoized per origin or per pair.

    The arrays describe one DFS preorder from the root, children
    visited in {!Tree.children} order. Every node's subtree is the
    contiguous run [pos.(v) .. pos.(v) + skips.(pos.(v)) - 1] of that
    preorder, so a downward walk below any node is a range scan, and a
    consumer can prune an entire subtree in O(1) when a crossing is
    dropped. How {!Network} composes these ranges into a flood from an
    arbitrary origin is described there. *)

type t = private {
  parent : int array;  (** [-1] for the root; copied from the tree *)
  depth : int array;  (** link count from the root *)
  nodes : int array;  (** the root preorder *)
  prevs : int array;  (** [parent] of each preorder entry *)
  skips : int array;  (** entries spanned by each entry's subtree, itself included *)
  pos : int array;  (** each node's index in [nodes] *)
}

val create : Tree.t -> t
(** Build the arrays for a tree, in O(n). *)

val neighbors : t -> int -> int array
(** Parent (if any) followed by children — array form of
    {!Tree.neighbors}, read off the preorder. *)

val children : t -> int -> int array

val subtree_size : t -> int -> int
(** Nodes at or below the given node, itself included. *)
