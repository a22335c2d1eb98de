package circuit

// Edit journal: optional recording of which nodes an editing operation
// touched, so callers maintaining derived per-node state (cuts, levels,
// path labels, simulation values) can recompute just the affected cone
// instead of rebuilding from scratch after every local rewiring.
//
// A node is "touched" when its own definition changes — type, fanin list,
// liveness — or when it is newly added. Consumers rewired by ReplaceUses are
// touched (their fanin changed); nodes whose fanout set changed implicitly
// (the old/new endpoints of ReplaceUses) are touched as well, so journal
// consumers may treat the set as covering every node whose local
// neighborhood moved. Values that depend on a wider cone (e.g. transitive
// fanin functions) must be invalidated by closure over the touched set;
// that closure is the caller's job.

// BeginJournal starts (or restarts) recording touched node IDs. Recording
// has no effect on semantics; it only populates the set returned by
// TakeJournal.
func (c *Circuit) BeginJournal() {
	c.journal = make(map[int]bool)
}

// TakeJournal returns the set of node IDs touched since the last
// BeginJournal/TakeJournal and resets the set, leaving recording active.
// Returns nil if recording was never started.
func (c *Circuit) TakeJournal() map[int]bool {
	j := c.journal
	if j != nil {
		c.journal = make(map[int]bool)
	}
	return j
}

// EndJournal stops recording and discards any unread entries.
func (c *Circuit) EndJournal() {
	c.journal = nil
}

func (c *Circuit) touch(id int) {
	if c.journal != nil {
		c.journal[id] = true
	}
	// Every touch also advances the frozen-view generation (csr.go), whether
	// or not journal recording is on.
	c.fz.gen++
	c.fz.note(id, len(c.Nodes))
}
