package scengen

import "encoding/json"

// Shrink minimises a failing program: it greedily applies structural
// reductions — drop the partition, whole families, objects, actions, raises,
// belated joins, ops, then simplify the exception tree — keeping a candidate
// whenever the predicate still fails on it, until no reduction helps or the
// probe budget runs out. The predicate receives only valid programs.
//
// The result is what lands in testdata/corpus: the smallest program known to
// reproduce the divergence.
func Shrink(p *Program, failing func(*Program) bool, budget int) *Program {
	cur := clone(p)
	for budget > 0 {
		improved := false
		for _, cand := range shrinkCandidates(cur) {
			if budget <= 0 {
				break
			}
			if cand.Validate() != nil {
				continue
			}
			budget--
			if failing(cand) {
				cur = cand
				improved = true
				break
			}
		}
		if !improved {
			return cur
		}
	}
	return cur
}

func clone(p *Program) *Program {
	data, err := json.Marshal(p)
	if err != nil {
		panic(err) // a Program is plain data
	}
	var out Program
	if err := json.Unmarshal(data, &out); err != nil {
		panic(err)
	}
	return &out
}

// shrinkCandidates proposes one-step reductions of p, biggest cuts first.
// Candidates may be invalid; Shrink filters through Validate.
func shrinkCandidates(p *Program) []*Program {
	var out []*Program
	add := func(c *Program) { out = append(out, c) }

	// Drop the partition, then weaken it: a flapping schedule to a single
	// heal cycle, a healing schedule to a plain expel-only partition.
	if p.Partition != nil {
		c := clone(p)
		c.Partition = nil
		add(c)
		if p.Partition.Flap > 0 {
			c := clone(p)
			c.Partition.Flap = 0
			add(c)
		}
		if p.Partition.Heal {
			c := clone(p)
			c.Partition.Heal = false
			c.Partition.Flap = 0
			add(c)
		}
	}
	// Drop a whole family.
	if len(p.Families) > 1 {
		for fi := range p.Families {
			c := clone(p)
			c.Families = append(c.Families[:fi], c.Families[fi+1:]...)
			add(c)
		}
	}
	for fi := range p.Families {
		fam := &p.Families[fi]
		// Drop an object: remove it everywhere, then sweep newly empty
		// childless actions.
		if len(fam.Objects) > 1 {
			for _, obj := range fam.Objects {
				if c := dropObject(p, fi, obj); c != nil {
					add(c)
				}
			}
		}
		// Remove a childless nested action, merging its members back into
		// the parent (their raises move up; validation decides legality).
		for ai := range fam.Actions {
			if ai == 0 || hasChildren(fam, ai) {
				continue
			}
			add(dropAction(p, fi, ai))
		}
		// Drop all raises of the family, then single raises.
		if len(fam.Raises) > 0 {
			c := clone(p)
			c.Families[fi].Raises = nil
			add(c)
			for ri := range fam.Raises {
				c := clone(p)
				c.Families[fi].Raises = append(c.Families[fi].Raises[:ri], c.Families[fi].Raises[ri+1:]...)
				add(c)
			}
		}
		// Drop belated joins and ops, wholesale then singly.
		if len(fam.Belated) > 0 {
			c := clone(p)
			c.Families[fi].Belated = nil
			add(c)
			for bi := range fam.Belated {
				c := clone(p)
				c.Families[fi].Belated = append(c.Families[fi].Belated[:bi], c.Families[fi].Belated[bi+1:]...)
				add(c)
			}
		}
		if len(fam.Ops) > 0 {
			c := clone(p)
			c.Families[fi].Ops = nil
			add(c)
			for oi := range fam.Ops {
				c := clone(p)
				c.Families[fi].Ops = append(c.Families[fi].Ops[:oi], c.Families[fi].Ops[oi+1:]...)
				add(c)
			}
		}
		// Flatten policy and delays.
		if fam.WaitForNested {
			c := clone(p)
			c.Families[fi].WaitForNested = false
			add(c)
		}
		for ri, r := range fam.Raises {
			if r.DelayMS != 0 {
				c := clone(p)
				c.Families[fi].Raises[ri].DelayMS = 0
				add(c)
			}
		}
	}
	// Retarget every raise at the root exception, then drop unused
	// exceptions — together these collapse the tree to what the failure
	// actually needs.
	if c := rootRaises(p); c != nil {
		add(c)
	}
	if c := dropUnusedExceptions(p); c != nil {
		add(c)
	}
	return out
}

func hasChildren(f *Family, ai int) bool {
	for _, a := range f.Actions {
		if a.Parent == ai {
			return true
		}
	}
	return false
}

// dropObject removes obj from family fi, sweeping its raises, belated joins,
// ops and any action left empty (nil when the sweep would orphan children).
func dropObject(p *Program, fi, obj int) *Program {
	c := clone(p)
	fam := &c.Families[fi]
	fam.Objects = removeInt(fam.Objects, obj)
	for ai := range fam.Actions {
		fam.Actions[ai].Members = removeInt(fam.Actions[ai].Members, obj)
	}
	fam.Raises = filter(fam.Raises, func(r Raise) bool { return r.Obj != obj })
	fam.Belated = filter(fam.Belated, func(b Belated) bool { return b.Obj != obj })
	fam.Ops = filter(fam.Ops, func(o AtomicOp) bool { return o.Obj != obj })
	if c.Partition != nil {
		c.Partition.Cut = removeInt(c.Partition.Cut, obj)
		if len(c.Partition.Cut) == 0 {
			c.Partition = nil
		}
	}
	// Sweep actions emptied by the removal, innermost first.
	for {
		removed := false
		for ai := len(fam.Actions) - 1; ai > 0; ai-- {
			if len(fam.Actions[ai].Members) > 0 {
				continue
			}
			if hasChildren(fam, ai) {
				return nil // would orphan children; let another candidate handle it
			}
			*c = *removeAction(c, fi, ai)
			fam = &c.Families[fi]
			removed = true
			break
		}
		if !removed {
			break
		}
	}
	return c
}

// dropAction removes a childless action, merging its members into the parent
// (where they already are, by the subset rule).
func dropAction(p *Program, fi, ai int) *Program {
	return removeAction(clone(p), fi, ai)
}

// removeAction deletes action ai from family fi in place and remaps the
// belated joins that pointed at or beyond it. Callers guarantee ai > 0 and no
// children.
func removeAction(c *Program, fi, ai int) *Program {
	fam := &c.Families[fi]
	fam.Actions = append(fam.Actions[:ai], fam.Actions[ai+1:]...)
	for i := range fam.Actions {
		if fam.Actions[i].Parent > ai {
			fam.Actions[i].Parent--
		}
	}
	fam.Belated = filter(fam.Belated, func(b Belated) bool { return b.Action != ai })
	for i := range fam.Belated {
		if fam.Belated[i].Action > ai {
			fam.Belated[i].Action--
		}
	}
	return c
}

// rootRaises retargets every raise at the root exception (nil when already
// there).
func rootRaises(p *Program) *Program {
	root := p.Exceptions[0].Name
	changed := false
	c := clone(p)
	for fi := range c.Families {
		for ri := range c.Families[fi].Raises {
			if c.Families[fi].Raises[ri].Exc != root {
				c.Families[fi].Raises[ri].Exc = root
				changed = true
			}
		}
	}
	if !changed {
		return nil
	}
	return c
}

// dropUnusedExceptions removes exceptions no raise references (keeping the
// root and every referenced node's ancestors). Nil when nothing is droppable.
func dropUnusedExceptions(p *Program) *Program {
	used := map[string]bool{p.Exceptions[0].Name: true}
	for fi := range p.Families {
		for _, r := range p.Families[fi].Raises {
			used[r.Exc] = true
		}
	}
	parent := make(map[string]string, len(p.Exceptions))
	for _, n := range p.Exceptions {
		parent[n.Name] = n.Parent
	}
	for name := range used {
		for q := parent[name]; q != ""; q = parent[q] {
			used[q] = true
		}
	}
	if len(used) == len(p.Exceptions) {
		return nil
	}
	c := clone(p)
	var kept []ExcNode
	for _, n := range c.Exceptions {
		if used[n.Name] {
			kept = append(kept, n)
		}
	}
	c.Exceptions = kept
	return c
}

func removeInt(in []int, v int) []int {
	out := in[:0]
	for _, x := range in {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// filter keeps the elements of in that keep accepts, in place.
func filter[T any](in []T, keep func(T) bool) []T {
	out := in[:0]
	for _, x := range in {
		if keep(x) {
			out = append(out, x)
		}
	}
	return out
}
