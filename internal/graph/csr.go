package graph

// csr is a slice of rows stored as one payload array plus row offsets:
// row i is val[off[i]:off[i+1]]. Every per-node and per-SCC list that
// stays resident after a load has this shape, so a loaded graph is a
// handful of pointer-free arrays instead of one slice header (and one
// allocation) per node.
type csr[T any] struct {
	off []int32 // len = rows + 1
	val []T
}

func (c csr[T]) rows() int { return len(c.off) - 1 }

// row returns row i with its capacity clipped, so an append by a caller
// cannot run into the next row.
func (c csr[T]) row(i int32) []T {
	lo, hi := c.off[i], c.off[i+1]
	return c.val[lo:hi:hi]
}

// bucket stably counting-sorts items by key (in [0, rows)) and returns
// val(item) per item, grouped into one row per key.
func bucket[T, V any](rows int, items []T, key func(T) int32, val func(T) V) csr[V] {
	c := csr[V]{off: make([]int32, rows+1), val: make([]V, len(items))}
	for _, it := range items {
		c.off[key(it)+1]++
	}
	for i := 0; i < rows; i++ {
		c.off[i+1] += c.off[i]
	}
	next := append([]int32(nil), c.off[:rows]...)
	for _, it := range items {
		k := key(it)
		c.val[next[k]] = val(it)
		next[k]++
	}
	return c
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int32)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) get(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
