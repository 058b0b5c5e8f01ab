package sa

// computeDominators builds the dominator tree over the entry-reachable
// block subgraph using the Cooper/Harvey/Kennedy iterative algorithm on
// a reverse-postorder numbering. Blocks outside the entry-reachable
// subgraph (symbol-rooted code) have no dominator information.
func (a *Analysis) computeDominators() {
	a.idom = make([]int, len(a.blocks))
	for i := range a.idom {
		a.idom[i] = -1
	}
	if len(a.blocks) == 0 {
		return
	}
	entry := a.blockAt(a.prog.Entry)
	if entry == nil || !entry.entryReach {
		return
	}
	entryID := int(a.regions[entry.ri].blockOf[entry.start])
	a.entryBlock = entryID

	// Depth-first postorder from the entry block.
	state := make([]uint8, len(a.blocks)) // 0 unvisited, 1 on stack, 2 done
	var post []int
	type frame struct{ id, next int }
	stack := []frame{{entryID, 0}}
	state[entryID] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		b := a.blocks[f.id]
		if f.next < len(b.succs) {
			s := b.succs[f.next]
			f.next++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[f.id] = 2
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}
	a.rpo = make([]int, len(post))
	for i, id := range post {
		a.rpo[len(post)-1-i] = id
	}
	rpoNum := make([]int, len(a.blocks))
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, id := range a.rpo {
		rpoNum[id] = i
	}
	preds := make([][]int, len(a.blocks))
	for _, id := range a.rpo {
		for _, s := range a.blocks[id].succs {
			if rpoNum[s] >= 0 {
				preds[s] = append(preds[s], id)
			}
		}
	}

	intersect := func(x, y int) int {
		for x != y {
			for rpoNum[x] > rpoNum[y] {
				x = a.idom[x]
			}
			for rpoNum[y] > rpoNum[x] {
				y = a.idom[y]
			}
		}
		return x
	}

	a.idom[entryID] = entryID
	for changed := true; changed; {
		changed = false
		for _, id := range a.rpo {
			if id == entryID {
				continue
			}
			newIdom := -1
			for _, p := range preds[id] {
				if a.idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && a.idom[id] != newIdom {
				a.idom[id] = newIdom
				changed = true
			}
		}
	}
	// The entry block's self-idom was a sentinel for the fixpoint.
	a.idom[entryID] = -1
}

// dominates reports whether block xid dominates block yid
// (reflexively). Blocks outside the entry-reachable subgraph never
// dominate anything.
func (a *Analysis) dominates(xid, yid int) bool {
	if xid == a.entryBlock || xid == yid {
		return xid == yid || a.idomKnown(yid)
	}
	for cur := yid; cur >= 0; cur = a.idom[cur] {
		if cur == xid {
			return true
		}
	}
	return false
}

// idomKnown reports whether yid participates in the dominator tree (is
// entry-reachable), so that "entry dominates y" is only claimed for
// blocks actually reachable from the entry.
func (a *Analysis) idomKnown(yid int) bool {
	return yid == a.entryBlock || a.idom[yid] >= 0
}
