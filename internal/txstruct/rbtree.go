package txstruct

import (
	"repro/internal/mem"
	"repro/internal/stm"
)

// RBNodeSize is the red-black tree node size: key, value, left, right,
// parent, color — the paper's 48-byte node (§5.3), which has no exact
// size class under Glibc or Hoard.
const RBNodeSize = 48

const (
	rbKey    = 0
	rbVal    = 8
	rbLeft   = 16
	rbRight  = 24
	rbParent = 32
	rbColor  = 40
)

const (
	black = 0
	red   = 1
)

// RBTree is a transactional red-black tree mapping int64 keys to uint64
// values. The nil leaf is address 0. Deletion uses successor key/value
// copying, so — as the paper notes for its tree benchmark — a
// transaction may free a node that a different transaction allocated.
type RBTree struct {
	rootCell mem.Addr // cell holding the root pointer
	sizeCell mem.Addr // cell holding the element count
}

// NewRBTree builds an empty tree inside a transaction.
func NewRBTree(tx *stm.Tx) *RBTree {
	cells := tx.Malloc(16)
	tx.Store(cells, 0)
	tx.Store(cells+8, 0)
	return &RBTree{rootCell: cells, sizeCell: cells + 8}
}

func (t *RBTree) root(tx *stm.Tx) mem.Addr { return mem.Addr(tx.Load(t.rootCell)) }

func key(tx *stm.Tx, n mem.Addr) int64      { return int64(tx.Load(n + rbKey)) }
func left(tx *stm.Tx, n mem.Addr) mem.Addr  { return mem.Addr(tx.Load(n + rbLeft)) }
func right(tx *stm.Tx, n mem.Addr) mem.Addr { return mem.Addr(tx.Load(n + rbRight)) }
func parent(tx *stm.Tx, n mem.Addr) mem.Addr {
	if n == 0 {
		return 0
	}
	return mem.Addr(tx.Load(n + rbParent))
}

// colorOf treats the nil leaf as black, as in CLRS.
func colorOf(tx *stm.Tx, n mem.Addr) uint64 {
	if n == 0 {
		return black
	}
	return tx.Load(n + rbColor)
}

func setColor(tx *stm.Tx, n mem.Addr, c uint64) {
	if n != 0 {
		tx.Store(n+rbColor, c)
	}
}

// Get returns the value stored under k.
func (t *RBTree) Get(tx *stm.Tx, k int64) (uint64, bool) {
	n := t.lookup(tx, k)
	if n == 0 {
		return 0, false
	}
	return tx.Load(n + rbVal), true
}

// Contains reports whether k is present.
func (t *RBTree) Contains(tx *stm.Tx, k int64) bool { return t.lookup(tx, k) != 0 }

func (t *RBTree) lookup(tx *stm.Tx, k int64) mem.Addr {
	n := t.root(tx)
	for n != 0 {
		nk := key(tx, n)
		switch {
		case k < nk:
			n = left(tx, n)
		case k > nk:
			n = right(tx, n)
		default:
			return n
		}
	}
	return 0
}

// Len returns the element count.
func (t *RBTree) Len(tx *stm.Tx) int { return int(tx.Load(t.sizeCell)) }

// Insert adds k -> v, reporting false (and leaving the tree unchanged)
// if k was already present.
func (t *RBTree) Insert(tx *stm.Tx, k int64, v uint64) bool {
	var p mem.Addr
	n := t.root(tx)
	for n != 0 {
		p = n
		nk := key(tx, n)
		switch {
		case k < nk:
			n = left(tx, n)
		case k > nk:
			n = right(tx, n)
		default:
			return false
		}
	}
	z := tx.Malloc(RBNodeSize)
	tx.Store(z+rbKey, uint64(k))
	tx.Store(z+rbVal, v)
	tx.Store(z+rbLeft, 0)
	tx.Store(z+rbRight, 0)
	tx.Store(z+rbParent, uint64(p))
	tx.Store(z+rbColor, red)
	if p == 0 {
		tx.Store(t.rootCell, uint64(z))
	} else if k < key(tx, p) {
		tx.Store(p+rbLeft, uint64(z))
	} else {
		tx.Store(p+rbRight, uint64(z))
	}
	t.insertFixup(tx, z)
	tx.Store(t.sizeCell, tx.Load(t.sizeCell)+1)
	return true
}

func (t *RBTree) rotateLeft(tx *stm.Tx, x mem.Addr) {
	y := right(tx, x)
	yl := left(tx, y)
	tx.Store(x+rbRight, uint64(yl))
	if yl != 0 {
		tx.Store(yl+rbParent, uint64(x))
	}
	p := parent(tx, x)
	tx.Store(y+rbParent, uint64(p))
	switch {
	case p == 0:
		tx.Store(t.rootCell, uint64(y))
	case x == left(tx, p):
		tx.Store(p+rbLeft, uint64(y))
	default:
		tx.Store(p+rbRight, uint64(y))
	}
	tx.Store(y+rbLeft, uint64(x))
	tx.Store(x+rbParent, uint64(y))
}

func (t *RBTree) rotateRight(tx *stm.Tx, x mem.Addr) {
	y := left(tx, x)
	yr := right(tx, y)
	tx.Store(x+rbLeft, uint64(yr))
	if yr != 0 {
		tx.Store(yr+rbParent, uint64(x))
	}
	p := parent(tx, x)
	tx.Store(y+rbParent, uint64(p))
	switch {
	case p == 0:
		tx.Store(t.rootCell, uint64(y))
	case x == right(tx, p):
		tx.Store(p+rbRight, uint64(y))
	default:
		tx.Store(p+rbLeft, uint64(y))
	}
	tx.Store(y+rbRight, uint64(x))
	tx.Store(x+rbParent, uint64(y))
}

func (t *RBTree) insertFixup(tx *stm.Tx, z mem.Addr) {
	for colorOf(tx, parent(tx, z)) == red {
		p := parent(tx, z)
		g := parent(tx, p)
		if p == left(tx, g) {
			u := right(tx, g)
			if colorOf(tx, u) == red {
				setColor(tx, p, black)
				setColor(tx, u, black)
				setColor(tx, g, red)
				z = g
			} else {
				if z == right(tx, p) {
					z = p
					t.rotateLeft(tx, z)
					p = parent(tx, z)
					g = parent(tx, p)
				}
				setColor(tx, p, black)
				setColor(tx, g, red)
				t.rotateRight(tx, g)
			}
		} else {
			u := left(tx, g)
			if colorOf(tx, u) == red {
				setColor(tx, p, black)
				setColor(tx, u, black)
				setColor(tx, g, red)
				z = g
			} else {
				if z == left(tx, p) {
					z = p
					t.rotateRight(tx, z)
					p = parent(tx, z)
					g = parent(tx, p)
				}
				setColor(tx, p, black)
				setColor(tx, g, red)
				t.rotateLeft(tx, g)
			}
		}
	}
	setColor(tx, t.root(tx), black)
}

// Remove deletes k, reporting false if absent. When the doomed node has
// two children its successor's key/value are copied in and the
// *successor's* node is freed — so the freed block may have been
// allocated by a different thread's transaction.
func (t *RBTree) Remove(tx *stm.Tx, k int64) bool {
	z := t.lookup(tx, k)
	if z == 0 {
		return false
	}
	y := z // node to splice out
	if left(tx, z) != 0 && right(tx, z) != 0 {
		// Successor: leftmost of right subtree.
		y = right(tx, z)
		for l := left(tx, y); l != 0; l = left(tx, y) {
			y = l
		}
		tx.Store(z+rbKey, tx.Load(y+rbKey))
		tx.Store(z+rbVal, tx.Load(y+rbVal))
	}
	// y has at most one child.
	x := left(tx, y)
	if x == 0 {
		x = right(tx, y)
	}
	yp := parent(tx, y)
	if x != 0 {
		tx.Store(x+rbParent, uint64(yp))
	}
	switch {
	case yp == 0:
		tx.Store(t.rootCell, uint64(x))
	case y == left(tx, yp):
		tx.Store(yp+rbLeft, uint64(x))
	default:
		tx.Store(yp+rbRight, uint64(x))
	}
	needFix := colorOf(tx, y) == black
	if needFix {
		t.deleteFixup(tx, x, yp)
	}
	tx.Free(y, RBNodeSize)
	tx.Store(t.sizeCell, tx.Load(t.sizeCell)-1)
	return true
}

// deleteFixup restores red-black properties after removing a black
// node; x (possibly nil) sits where the black deficit is, under parent
// p.
func (t *RBTree) deleteFixup(tx *stm.Tx, x, p mem.Addr) {
	for x != t.root(tx) && colorOf(tx, x) == black {
		if p == 0 {
			break
		}
		if x == left(tx, p) {
			w := right(tx, p)
			if colorOf(tx, w) == red {
				setColor(tx, w, black)
				setColor(tx, p, red)
				t.rotateLeft(tx, p)
				w = right(tx, p)
			}
			if colorOf(tx, left(tx, w)) == black && colorOf(tx, right(tx, w)) == black {
				setColor(tx, w, red)
				x, p = p, parent(tx, p)
			} else {
				if colorOf(tx, right(tx, w)) == black {
					setColor(tx, left(tx, w), black)
					setColor(tx, w, red)
					t.rotateRight(tx, w)
					w = right(tx, p)
				}
				setColor(tx, w, colorOf(tx, p))
				setColor(tx, p, black)
				setColor(tx, right(tx, w), black)
				t.rotateLeft(tx, p)
				x = t.root(tx)
				break
			}
		} else {
			w := left(tx, p)
			if colorOf(tx, w) == red {
				setColor(tx, w, black)
				setColor(tx, p, red)
				t.rotateRight(tx, p)
				w = left(tx, p)
			}
			if colorOf(tx, right(tx, w)) == black && colorOf(tx, left(tx, w)) == black {
				setColor(tx, w, red)
				x, p = p, parent(tx, p)
			} else {
				if colorOf(tx, left(tx, w)) == black {
					setColor(tx, right(tx, w), black)
					setColor(tx, w, red)
					t.rotateLeft(tx, w)
					w = left(tx, p)
				}
				setColor(tx, w, colorOf(tx, p))
				setColor(tx, p, black)
				setColor(tx, left(tx, w), black)
				t.rotateRight(tx, p)
				x = t.root(tx)
				break
			}
		}
	}
	setColor(tx, x, black)
}

// Keys returns all keys in order (validation).
func (t *RBTree) Keys(tx *stm.Tx) []int64 {
	var out []int64
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if n == 0 {
			return
		}
		walk(left(tx, n))
		out = append(out, key(tx, n))
		walk(right(tx, n))
	}
	walk(t.root(tx))
	return out
}

// CheckInvariants verifies BST order and the red-black properties,
// returning the black-height or -1 with a description of the violation.
func (t *RBTree) CheckInvariants(tx *stm.Tx) (blackHeight int, problem string) {
	root := t.root(tx)
	if colorOf(tx, root) != black {
		return -1, "root is red"
	}
	var check func(n mem.Addr, lo, hi int64) (int, string)
	check = func(n mem.Addr, lo, hi int64) (int, string) {
		if n == 0 {
			return 1, ""
		}
		k := key(tx, n)
		if k <= lo || k >= hi {
			return -1, "BST order violated"
		}
		c := colorOf(tx, n)
		l, r := left(tx, n), right(tx, n)
		if c == red && (colorOf(tx, l) == red || colorOf(tx, r) == red) {
			return -1, "red node with red child"
		}
		lb, p1 := check(l, lo, k)
		if p1 != "" {
			return -1, p1
		}
		rb, p2 := check(r, k, hi)
		if p2 != "" {
			return -1, p2
		}
		if lb != rb {
			return -1, "black-height mismatch"
		}
		if c == black {
			lb++
		}
		return lb, ""
	}
	return check(root, -1<<62, 1<<62)
}
