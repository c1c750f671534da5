package atomicobj

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The shapes a generated transaction tree is built from. Besides plain
// operations and random children, every root runs each of the last three
// shapes at least once.
const (
	shapeWrites      = iota // one key written several times over
	shapeAdd                // a commuting add (in place under a lock, else pending)
	shapeInsert             // a commuting set insert on the one set object
	shapeRead               // an own read, checked against the model
	shapeChild              // a random subtree, committed or aborted at random
	shapeFreshCommit        // a child locks a free key, writes it repeatedly, commits; the parent writes it again
	shapeUnderLock          // a child writes under an ancestor's lock and aborts
	shapeMaterialise        // Add, own Read (materialisation), Write, Add
	shapeCount
)

// treeGen runs one seeded random transaction tree against the store and a
// plain map model of what each transaction must see.
type treeGen struct {
	rng   *rand.Rand
	fresh int // names keys no transaction has touched yet
	cover *[shapeCount]int
}

// txnNode is one live transaction of the tree with its model: the values it
// must read and the keys its ancestor chain or it holds locked.
type txnNode struct {
	txn    *Txn
	model  map[string]any
	locked map[string]bool
}

const (
	treeKeys  = 6 // k0..k3 committed before the tree starts, k4 and k5 absent
	treeDepth = 3
	setKey    = "set"
)

func (g *treeGen) anyKey() string { return fmt.Sprintf("k%d", g.rng.Intn(treeKeys)) }

// freeKey returns a key n's chain holds no lock on, preferring the shared
// ones; a never-touched key when all of them are locked.
func (g *treeGen) freeKey(n *txnNode) string {
	for _, i := range g.rng.Perm(treeKeys) {
		if k := fmt.Sprintf("k%d", i); !n.locked[k] {
			return k
		}
	}
	g.fresh++
	return fmt.Sprintf("fresh%d", g.fresh)
}

func (g *treeGen) write(n *txnNode, key string) error {
	v := g.rng.Intn(1000)
	if err := n.txn.Write(key, v); err != nil {
		return err
	}
	n.model[key] = v
	n.locked[key] = true
	return nil
}

func (g *treeGen) add(n *txnNode, key string) error {
	d := 1 + g.rng.Intn(9)
	if err := n.txn.Add(key, d); err != nil {
		return err
	}
	cur, _ := n.model[key].(int)
	n.model[key] = cur + d
	return nil
}

func (g *treeGen) insert(n *txnNode) error {
	e := fmt.Sprintf("e%d", g.rng.Intn(5))
	if err := n.txn.Insert(setKey, e); err != nil {
		return err
	}
	set := map[string]bool{e: true}
	if old, ok := n.model[setKey].(map[string]bool); ok {
		set = maps.Clone(old)
		set[e] = true
	}
	n.model[setKey] = set
	return nil
}

func (g *treeGen) read(n *txnNode, key string) error {
	v, err := n.txn.Read(key)
	n.locked[key] = true
	want, ok := n.model[key]
	switch {
	case !ok && !errors.Is(err, ErrNoSuchObject):
		return fmt.Errorf("read %s = %v, %v; want no such object", key, v, err)
	case ok && (err != nil || !reflect.DeepEqual(v, want)):
		return fmt.Errorf("read %s = %v, %v; want %v", key, v, err, want)
	}
	return nil
}

// child begins a nested transaction seeing n's model and n's chain's locks.
func (n *txnNode) child() (*txnNode, error) {
	c, err := n.txn.BeginChild()
	if err != nil {
		return nil, err
	}
	return &txnNode{txn: c, model: maps.Clone(n.model), locked: maps.Clone(n.locked)}, nil
}

// finish commits c into its parent n (c's model and locks become n's) or
// aborts it (n's stay as they were).
func (n *txnNode) finish(c *txnNode, commit bool) error {
	if !commit {
		return c.txn.Abort()
	}
	if err := c.txn.Commit(); err != nil {
		return err
	}
	n.model, n.locked = c.model, c.locked
	return nil
}

// run executes a random list of shapes in n, plus the given ones.
func (g *treeGen) run(n *txnNode, depth int, forced ...int) error {
	shapes := forced
	for i := 2 + g.rng.Intn(6); i > 0; i-- {
		s := g.rng.Intn(shapeCount)
		if depth >= treeDepth && s >= shapeChild {
			s = shapeWrites // no nesting past the depth limit
		}
		shapes = append(shapes, s)
	}
	g.rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	for _, s := range shapes {
		if err := g.shape(n, depth, s); err != nil {
			return err
		}
		if err := loggedByOwner(n.txn.store); err != nil {
			return err
		}
		g.cover[s]++
	}
	return nil
}

func (g *treeGen) shape(n *txnNode, depth, s int) error {
	switch s {
	case shapeWrites:
		key := g.anyKey()
		for i := 1 + g.rng.Intn(4); i > 0; i-- {
			if err := g.write(n, key); err != nil {
				return err
			}
		}
	case shapeAdd:
		return g.add(n, g.anyKey())
	case shapeInsert:
		return g.insert(n)
	case shapeRead:
		if g.rng.Intn(4) == 0 {
			return g.read(n, setKey)
		}
		return g.read(n, g.anyKey())
	case shapeChild:
		c, err := n.child()
		if err != nil {
			return err
		}
		if err := g.run(c, depth+1); err != nil {
			return err
		}
		return n.finish(c, g.rng.Intn(2) == 0)
	case shapeFreshCommit:
		key := g.freeKey(n)
		c, err := n.child()
		if err != nil {
			return err
		}
		if g.rng.Intn(2) == 0 {
			// Lock by reading first; with no writes after it, the
			// child's log holds nothing for key when it commits.
			if err := g.read(c, key); err != nil {
				return err
			}
		}
		for i := g.rng.Intn(7); i > 0; i-- {
			if err := g.write(c, key); err != nil {
				return err
			}
		}
		if err := n.finish(c, true); err != nil {
			return err
		}
		for i := 1 + g.rng.Intn(3); i > 0; i-- {
			if err := g.write(n, key); err != nil {
				return err
			}
		}
		if owner, logged := ownership(n.txn.store, key); owner != n.txn || logged != n.txn {
			return fmt.Errorf("%s after a committed child's lock: owner %p logged %p, want both %p", key, owner, logged, n.txn)
		}
	case shapeUnderLock:
		key := g.anyKey()
		if !n.locked[key] {
			if err := g.write(n, key); err != nil {
				return err
			}
		}
		c, err := n.child()
		if err != nil {
			return err
		}
		for i := 2 + g.rng.Intn(4); i > 0; i-- {
			if err := g.write(c, key); err != nil {
				return err
			}
			if err := g.add(c, key); err != nil {
				return err
			}
		}
		if err := n.finish(c, false); err != nil {
			return err
		}
		return g.read(n, key)
	case shapeMaterialise:
		key := g.freeKey(n)
		if err := g.add(n, key); err != nil {
			return err
		}
		if err := g.read(n, key); err != nil {
			return err
		}
		if err := g.write(n, key); err != nil {
			return err
		}
		return g.add(n, key)
	}
	return nil
}

// ownership reads key's lock owner and logged mark.
func ownership(s *Store, key string) (owner, logged *Txn) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if o := sh.objects[key]; o != nil {
		return o.owner, o.logged
	}
	return nil, nil
}

// loggedByOwner reports an object whose logged mark is neither nil nor its
// lock owner.
func loggedByOwner(s *Store) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, o := range sh.objects {
			if o.logged != nil && o.logged != o.owner {
				sh.mu.Unlock()
				return fmt.Errorf("%s: logged %p, owner %p", k, o.logged, o.owner)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// quiescent reports an object still carrying transaction state after every
// transaction has finished.
func quiescent(s *Store) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, o := range sh.objects {
			if o.owner != nil || o.logged != nil || o.dirty || len(o.pending) > 0 || len(o.waiters) > 0 {
				sh.mu.Unlock()
				return fmt.Errorf("%s: owner %p logged %p dirty %v pending %d waiters %d",
					k, o.owner, o.logged, o.dirty, len(o.pending), len(o.waiters))
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// TestNestedAbortRestoresProperty: over seeded random transaction trees, every
// Read sees a plain map model and every logged mark is nil or its object's
// lock owner; a root abort restores the state before it, a root commit leaves
// the model, and afterwards no object keeps an owner or a logged mark. The
// trees repeat writes to one key, let children lock a key afresh and commit
// before the parent writes it again, let children write under an ancestor's
// lock and abort, and materialise Adds with an own Read before writing on.
func TestNestedAbortRestoresProperty(t *testing.T) {
	var cover [shapeCount]int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		model := map[string]any{}
		setup := s.Begin()
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("k%d", i)
			model[key] = rng.Intn(100)
			if err := setup.Write(key, model[key]); err != nil {
				t.Log(err)
				return false
			}
		}
		if err := setup.Commit(); err != nil {
			t.Log(err)
			return false
		}
		before := s.Snapshot()

		g := &treeGen{rng: rng, cover: &cover}
		root := &txnNode{txn: s.Begin(), model: model, locked: map[string]bool{}}
		if err := g.run(root, 0, shapeFreshCommit, shapeUnderLock, shapeMaterialise); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := root.model
		commit := rng.Intn(2) == 0
		var err error
		if commit {
			err = root.txn.Commit()
		} else {
			err, want = root.txn.Abort(), before
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if got := s.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d (commit %v): snapshot %v, want %v", seed, commit, got, want)
			return false
		}
		if err := quiescent(s); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	for s, n := range cover {
		if n == 0 {
			t.Errorf("shape %d never ran", s)
		}
	}
	t.Logf("shapes run: %v", cover)
}
