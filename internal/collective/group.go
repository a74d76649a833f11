package collective

import (
	"fmt"
	"slices"

	"hssort/internal/comm"
)

// Group is a sub-communicator: a view of a subset of a parent endpoint's
// ranks, renumbered 0..len(members)-1. All collectives in this package
// work over a Group unchanged, which is how the two-level node
// partitioning (§6.1) runs within-node sample sort across the cores of one
// node.
//
// Group traffic shares the parent's tag space; callers must give each
// concurrently active group collective a distinct tag (the node-level code
// derives tags from the group's node index).
type Group struct {
	parent  comm.Endpoint
	members []int // parent ranks, ascending
	myIdx   int
}

// NewGroup creates a group over the given parent ranks. members must
// contain the caller's parent rank; duplicates are rejected. The slice is
// copied and sorted, so every member constructs an identical numbering.
func NewGroup(parent comm.Endpoint, members []int) (*Group, error) {
	ms := slices.Clone(members)
	slices.Sort(ms)
	for i := 1; i < len(ms); i++ {
		if ms[i] == ms[i-1] {
			return nil, fmt.Errorf("collective: duplicate group member %d", ms[i])
		}
	}
	for _, m := range ms {
		if m < 0 || m >= parent.Size() {
			return nil, fmt.Errorf("collective: group member %d outside parent size %d", m, parent.Size())
		}
	}
	idx := slices.Index(ms, parent.Rank())
	if idx < 0 {
		return nil, fmt.Errorf("collective: caller rank %d not in group %v", parent.Rank(), ms)
	}
	return &Group{parent: parent, members: ms, myIdx: idx}, nil
}

var _ comm.Endpoint = (*Group)(nil)
var _ comm.StreamEndpoint = (*Group)(nil)

// Rank returns the caller's rank within the group.
func (g *Group) Rank() int { return g.myIdx }

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.members) }

// Send delivers payload to the group rank dst via the parent endpoint.
func (g *Group) Send(dst int, tag comm.Tag, payload any, bytes int64) error {
	if dst < 0 || dst >= len(g.members) {
		return fmt.Errorf("collective: group send to invalid rank %d (size %d)", dst, len(g.members))
	}
	return g.parent.Send(g.members[dst], tag, payload, bytes)
}

// Recv receives the next message from group rank src on tag. AnySource is
// not supported within a group: matching by parent source would admit
// messages from non-members sharing the tag.
func (g *Group) Recv(src int, tag comm.Tag) (comm.Message, error) {
	if src == comm.AnySource {
		return comm.Message{}, fmt.Errorf("collective: AnySource recv is not supported within a group")
	}
	if src < 0 || src >= len(g.members) {
		return comm.Message{}, fmt.Errorf("collective: group recv from invalid rank %d (size %d)", src, len(g.members))
	}
	m, err := g.parent.Recv(g.members[src], tag)
	if err != nil {
		return comm.Message{}, err
	}
	m.Src = src // translate the envelope into group numbering
	return m, nil
}

// streamParent returns the parent as a StreamEndpoint, or an error if the
// parent does not support posted receives.
func (g *Group) streamParent() (comm.StreamEndpoint, error) {
	sp, ok := g.parent.(comm.StreamEndpoint)
	if !ok {
		return nil, fmt.Errorf("collective: group parent %T does not support streaming receives", g.parent)
	}
	return sp, nil
}

// TryRecv returns the next buffered message from group rank src on tag
// without blocking. Unlike Recv, src may be AnySource, under the same
// members-only tag precondition as RecvAny: a buffered message from a
// non-member is reported as an error.
func (g *Group) TryRecv(src int, tag comm.Tag) (comm.Message, bool, error) {
	sp, err := g.streamParent()
	if err != nil {
		return comm.Message{}, false, err
	}
	if src == comm.AnySource {
		m, ok, err := sp.TryRecv(comm.AnySource, tag)
		if err != nil || !ok {
			return comm.Message{}, false, err
		}
		idx := slices.Index(g.members, m.Src)
		if idx < 0 {
			return comm.Message{}, false, fmt.Errorf("collective: group tag %d received message from non-member rank %d", tag, m.Src)
		}
		m.Src = idx
		return m, true, nil
	}
	if src < 0 || src >= len(g.members) {
		return comm.Message{}, false, fmt.Errorf("collective: group probe of invalid rank %d (size %d)", src, len(g.members))
	}
	m, ok, err := sp.TryRecv(g.members[src], tag)
	if err != nil || !ok {
		return comm.Message{}, false, err
	}
	m.Src = src
	return m, true, nil
}

// RecvAny blocks for the next message with the given tag from any group
// member. It requires the tag to be used exclusively by group members: a
// matching message from a non-member is a tag-discipline bug in the
// caller and is reported as an error (it cannot be requeued).
func (g *Group) RecvAny(tag comm.Tag) (comm.Message, error) {
	m, err := g.parent.Recv(comm.AnySource, tag)
	if err != nil {
		return comm.Message{}, err
	}
	idx := slices.Index(g.members, m.Src)
	if idx < 0 {
		return comm.Message{}, fmt.Errorf("collective: group tag %d received message from non-member rank %d", tag, m.Src)
	}
	m.Src = idx
	return m, nil
}
