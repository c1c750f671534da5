// Package ident defines the identifier types shared by every subsystem:
// objects (participants), CA actions and network nodes.
//
// The resolution algorithm of Romanovsky, Xu and Randell requires a total
// order over participating objects ("each object O_i has a unique number and
// all objects are ordered") so that a unique object can be chosen to resolve
// concurrently raised exceptions. ObjectID carries that order.
package ident

import "strconv"

// ObjectID identifies a participating object. IDs are ordered; the object
// with the greatest ID among those that raised exceptions acts as the
// resolution chooser.
type ObjectID int

// String returns the conventional "O<n>" rendering used in the paper.
func (o ObjectID) String() string { return "O" + strconv.Itoa(int(o)) }

// Less reports whether o orders before other.
func (o ObjectID) Less(other ObjectID) bool { return o < other }

// ActionID identifies a CA action instance. Nested actions receive fresh IDs;
// the identifier is unique within a Server.
type ActionID int

// String returns the conventional "A<n>" rendering used in the paper.
func (a ActionID) String() string { return "A" + strconv.Itoa(int(a)) }

// NodeID identifies a simulated network node. In this reproduction each
// participating object runs on its own node, mirroring the paper's
// "disjoint address spaces ... communicate by the exchange of messages".
type NodeID int

// String returns a human-readable rendering.
func (n NodeID) String() string { return "node" + strconv.Itoa(int(n)) }

// MaxObject returns the greatest ObjectID in ids, and false when ids is empty.
func MaxObject(ids []ObjectID) (ObjectID, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	maxID := ids[0]
	for _, id := range ids[1:] {
		if maxID.Less(id) {
			maxID = id
		}
	}
	return maxID, true
}
