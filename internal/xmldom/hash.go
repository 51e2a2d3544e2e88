package xmldom

import "sync"

// HashVector is the cached structural-hash index of one document version:
// one 64-bit subtree hash per node, addressed by the node's preorder index
// (Node.ord), assigned by the same pass that computes the hashes. Two
// subtrees with the same shape — node kinds, tags, attributes in order,
// the text of each data node — carry the same hash, so the diff layer
// compares whole subtrees in O(1) without rehashing either version. The
// root's hash is also the warehouse's one definition of "unchanged". It
// is finer than the serialisation: a data node split in two (text either
// side of a comment) serialises like one run of text but hashes
// differently.
//
// A vector is owned by exactly one Document and is only valid for the tree
// shape it was computed from: callers that mutate a hashed tree in place
// (AppendChild, RemoveChild, text or attribute edits) must call
// Document.InvalidateHashes before hashing again. The warehouse computes
// the vector once per committed version and recycles it when the version
// is superseded, so a version-chain diff hashes only the new tree.
type HashVector struct {
	v []uint64
}

// Of returns the subtree hash of n. n must belong to the tree this vector
// was computed from.
func (hv *HashVector) Of(n *Node) uint64 { return hv.v[n.ord] }

// Len returns the number of hashed nodes.
func (hv *HashVector) Len() int { return len(hv.v) }

// hashVecPool recycles hash vectors across document versions: the
// warehouse releases a superseded version's vector (InvalidateHashes) and
// the next committed version draws it back, so steady-state version-chain
// diffing allocates no hash storage.
var hashVecPool = sync.Pool{New: func() any { return &HashVector{} }}

// Hashes returns the document's structural hash vector, computing and
// caching it on first use. The computation is a single iterative
// post-order fold — no recursion, no per-node allocation — so document
// depth is bounded by memory, not by the goroutine stack.
//
// The cached vector is reused by every later call (and so by every Diff
// against this version) until InvalidateHashes is called. Documents are
// not internally locked: callers that share a document across goroutines
// must serialise the first Hashes call the same way they serialise any
// other access (the warehouse computes it under its commit lock).
func (d *Document) Hashes() *HashVector {
	if d.hashes == nil {
		hv := hashVecPool.Get().(*HashVector)
		hv.v = appendSubtreeHashes(hv.v[:0], d.Root)
		d.hashes = hv
	}
	return d.hashes
}

// InvalidateHashes drops the cached hash vector and returns its storage to
// the pool. Call it after mutating the tree in place, or when a version is
// superseded and its vector will never be read again. Any HashVector
// obtained from Hashes before this call must no longer be used.
func (d *Document) InvalidateHashes() {
	if d.hashes != nil {
		hashVecPool.Put(d.hashes)
		d.hashes = nil
	}
}

// appendSubtreeHashes assigns preorder indexes (Node.ord) and appends one
// structural subtree hash per node to vec, children before parents. The
// encoding mirrors Hash64's field separation — kind marker, tag, attribute
// pairs — but combines children by folding their finished subtree hashes
// (8 bytes each) into the parent, which is what makes a single post-order
// pass sufficient: a parent's hash is a pure function of its own fields
// and its children's hashes.
func appendSubtreeHashes(vec []uint64, root *Node) []uint64 {
	if root == nil {
		return vec
	}
	if root.Type == TextNode {
		root.ord = int32(len(vec))
		return append(vec, textSubtreeHash(root))
	}
	stp := hashFramePool.Get().(*[]hash64Frame)
	st := (*stp)[:0]
	root.ord = int32(len(vec))
	vec = append(vec, 0) // placeholder until the subtree closes
	st = append(st, hash64Frame{n: root, h: hash64Open(fnvOffset64, root)})
	for len(st) > 0 {
		f := &st[len(st)-1]
		if f.child < len(f.n.Children) {
			c := f.n.Children[f.child]
			f.child++
			if c.Type == TextNode {
				c.ord = int32(len(vec))
				th := textSubtreeHash(c)
				vec = append(vec, th)
				f.h = foldUint64(f.h, th)
				continue
			}
			c.ord = int32(len(vec))
			vec = append(vec, 0)
			st = append(st, hash64Frame{n: c, h: hash64Open(fnvOffset64, c)})
			continue
		}
		h := f.h ^ '<'
		h *= fnvPrime64
		vec[f.n.ord] = h
		st = st[:len(st)-1]
		if len(st) > 0 {
			p := &st[len(st)-1]
			p.h = foldUint64(p.h, h)
		}
	}
	*stp = st[:0]
	hashFramePool.Put(stp)
	return vec
}

// textSubtreeHash is the subtree hash of a data node.
func textSubtreeHash(n *Node) uint64 {
	h := uint64(fnvOffset64)
	h ^= 't'
	h *= fnvPrime64
	return HashFold(h, n.Text)
}

// foldUint64 folds the 8 little-endian bytes of v into the running FNV-1a
// hash h — how a child's finished subtree hash joins its parent's.
func foldUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
