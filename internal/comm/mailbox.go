package comm

import "sync"

// none terminates the mailbox's index-linked lists.
const none = -1

// boxNode is one queued message, linked into two lists at once: the
// arrival order across all senders and its own sender's FIFO. Links are
// indexes into mailbox.nodes.
type boxNode struct {
	Message
	prev, next       int32 // arrival order; next also chains the free list
	srcPrev, srcNext int32 // the sender's FIFO
}

// boxList is the two ends of one index-linked list.
type boxList struct{ head, tail int32 }

// mailbox is one rank's unbounded inbox, mirroring MPI's unexpected
// message queue. Every message sits in the arrival-ordered list and in
// its sender's FIFO. A receive naming its source walks that sender's
// FIFO only — during a p-rank all-to-all it never touches the ~p/2
// messages other senders have queued — while AnySource walks arrival
// order; either way the match is unlinked from both lists in O(1).
// Nodes are recycled through a free list, so a steady-state exchange
// enqueues without allocating.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	nodes   []boxNode
	free    int32     // recycled nodes, chained through next
	arrived boxList   // every queued message, oldest first
	bySrc   []boxList // per sender, oldest first
}

// newMailbox creates the inbox of one rank in a p-rank world.
func newMailbox(p int) *mailbox {
	mb := &mailbox{bySrc: make([]boxList, p)}
	mb.cond = sync.NewCond(&mb.mu)
	mb.reset()
	return mb
}

// reset discards every queued message; the node storage is kept for the
// next run.
func (mb *mailbox) reset() {
	mb.mu.Lock()
	clear(mb.nodes) // drop the payload references
	mb.nodes = mb.nodes[:0]
	mb.free = none
	mb.arrived = boxList{none, none}
	for s := range mb.bySrc {
		mb.bySrc[s] = boxList{none, none}
	}
	mb.mu.Unlock()
}

// put enqueues m behind every earlier arrival and behind its sender's
// earlier messages, and wakes the receivers.
func (mb *mailbox) put(m Message) {
	mb.mu.Lock()
	i := mb.free
	if i != none {
		mb.free = mb.nodes[i].next
	} else {
		i = int32(len(mb.nodes))
		mb.nodes = append(mb.nodes, boxNode{})
	}
	from := &mb.bySrc[m.Src]
	mb.nodes[i] = boxNode{Message: m, prev: mb.arrived.tail, next: none, srcPrev: from.tail, srcNext: none}
	if mb.arrived.tail != none {
		mb.nodes[mb.arrived.tail].next = i
	} else {
		mb.arrived.head = i
	}
	mb.arrived.tail = i
	if from.tail != none {
		mb.nodes[from.tail].srcNext = i
	} else {
		from.head = i
	}
	from.tail = i
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// take removes and returns the oldest message matching (src, tag).
// Callers hold mu.
func (mb *mailbox) take(src int, tag Tag) (Message, bool) {
	i := mb.arrived.head
	if src != AnySource {
		i = mb.bySrc[src].head
	}
	for i != none && mb.nodes[i].Tag != tag {
		if src != AnySource {
			i = mb.nodes[i].srcNext
		} else {
			i = mb.nodes[i].next
		}
	}
	if i == none {
		return Message{}, false
	}
	n := mb.nodes[i]
	if n.prev != none {
		mb.nodes[n.prev].next = n.next
	} else {
		mb.arrived.head = n.next
	}
	if n.next != none {
		mb.nodes[n.next].prev = n.prev
	} else {
		mb.arrived.tail = n.prev
	}
	from := &mb.bySrc[n.Src]
	if n.srcPrev != none {
		mb.nodes[n.srcPrev].srcNext = n.srcNext
	} else {
		from.head = n.srcNext
	}
	if n.srcNext != none {
		mb.nodes[n.srcNext].srcPrev = n.srcPrev
	} else {
		from.tail = n.srcPrev
	}
	mb.nodes[i] = boxNode{next: mb.free} // drops the payload reference
	mb.free = i
	return n.Message, true
}
