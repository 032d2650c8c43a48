// Package multiset implements the counted multisets ("configurations" in the
// paper's terminology, §3) that population protocols, population programs and
// population machines all operate on.
//
// A multiset over a universe of n element kinds is represented densely as a
// vector of n non-negative counts. Element kinds are identified by their
// index in 0..n-1; callers keep their own mapping from indices to names.
// The dense representation is what makes the simulator and the exact
// model-checker fast: all hot-path operations are simple slice arithmetic.
package multiset

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Multiset is a counted multiset over element kinds 0..Len()-1.
//
// The zero value is the empty multiset over an empty universe. Multisets are
// mutable; use Clone before handing one to code that must not share state.
type Multiset struct {
	counts []int64
	size   int64
}

// New returns an empty multiset over a universe of n element kinds.
func New(n int) *Multiset {
	return &Multiset{counts: make([]int64, n)}
}

// FromCounts builds a multiset from a count vector. The slice is copied.
// It panics if any count is negative; configurations are non-negative by
// definition (§3).
func FromCounts(counts []int64) *Multiset {
	m := &Multiset{counts: make([]int64, len(counts))}
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("multiset: negative count %d at index %d", c, i))
		}
		m.counts[i] = c
		m.size += c
	}
	return m
}

// Singleton returns the multiset over n kinds containing exactly one element
// of kind i (the "abuse of notation" of §3 identifying q with the multiset q).
func Singleton(n, i int) *Multiset {
	m := New(n)
	m.counts[i] = 1
	m.size = 1
	return m
}

// Len returns the number of element kinds in the universe.
func (m *Multiset) Len() int { return len(m.counts) }

// Size returns |C|, the total number of elements.
func (m *Multiset) Size() int64 { return m.size }

// Count returns C(i), the multiplicity of kind i.
func (m *Multiset) Count(i int) int64 { return m.counts[i] }

// CountOf returns C(S) = Σ_{q∈S} C(q) for a set of kinds.
func (m *Multiset) CountOf(kinds []int) int64 {
	var total int64
	for _, i := range kinds {
		total += m.counts[i]
	}
	return total
}

// Set sets the multiplicity of kind i to c. It panics on negative c.
func (m *Multiset) Set(i int, c int64) {
	if c < 0 {
		panic(fmt.Sprintf("multiset: negative count %d at index %d", c, i))
	}
	m.size += c - m.counts[i]
	m.counts[i] = c
}

// Add adds delta (possibly negative) to the multiplicity of kind i.
// It panics if the multiplicity would become negative.
func (m *Multiset) Add(i int, delta int64) {
	c := m.counts[i] + delta
	if c < 0 {
		panic(fmt.Sprintf("multiset: count of %d would become %d", i, c))
	}
	m.counts[i] = c
	m.size += delta
}

// Move transfers one element from kind i to kind j. It panics if kind i is
// empty; that is the "hang" condition of the move instruction (§4), which
// callers must check for themselves with Count.
func (m *Multiset) Move(i, j int) {
	if m.counts[i] == 0 {
		panic(fmt.Sprintf("multiset: move from empty kind %d", i))
	}
	m.counts[i]--
	m.counts[j]++
}

// Swap exchanges the multiplicities of kinds i and j.
func (m *Multiset) Swap(i, j int) {
	m.counts[i], m.counts[j] = m.counts[j], m.counts[i]
}

// Clone returns a deep copy.
func (m *Multiset) Clone() *Multiset {
	out := &Multiset{counts: make([]int64, len(m.counts)), size: m.size}
	copy(out.counts, m.counts)
	return out
}

// CloneN returns n deep copies of m carved from one backing count array, so
// a batch of successor configurations costs three allocations rather than
// two per copy. The copies are independent: each owns a disjoint,
// capacity-limited segment of the backing array.
func (m *Multiset) CloneN(n int) []*Multiset {
	k := len(m.counts)
	backing := make([]int64, n*k)
	sets := make([]Multiset, n)
	out := make([]*Multiset, n)
	for i := range sets {
		counts := backing[i*k : (i+1)*k : (i+1)*k]
		copy(counts, m.counts)
		sets[i] = Multiset{counts: counts, size: m.size}
		out[i] = &sets[i]
	}
	return out
}

// Counts returns a copy of the underlying count vector.
func (m *Multiset) Counts() []int64 {
	out := make([]int64, len(m.counts))
	copy(out, m.counts)
	return out
}

// Equal reports whether m and o contain exactly the same elements.
func (m *Multiset) Equal(o *Multiset) bool {
	if len(m.counts) != len(o.counts) || m.size != o.size {
		return false
	}
	for i, c := range m.counts {
		if c != o.counts[i] {
			return false
		}
	}
	return true
}

// Leq reports whether m ≤ o componentwise (the order of §3).
func (m *Multiset) Leq(o *Multiset) bool {
	if len(m.counts) != len(o.counts) {
		return false
	}
	for i, c := range m.counts {
		if c > o.counts[i] {
			return false
		}
	}
	return true
}

// AddAll adds every element of o to m (the componentwise sum C + C').
// The universes must agree.
func (m *Multiset) AddAll(o *Multiset) {
	if len(m.counts) != len(o.counts) {
		panic("multiset: universe size mismatch in AddAll")
	}
	for i, c := range o.counts {
		m.counts[i] += c
	}
	m.size += o.size
}

// SubAll removes every element of o from m (the componentwise difference
// C − C', defined only when C ≥ C'). It panics if o ⊄ m.
func (m *Multiset) SubAll(o *Multiset) {
	if len(m.counts) != len(o.counts) {
		panic("multiset: universe size mismatch in SubAll")
	}
	for i, c := range o.counts {
		if m.counts[i] < c {
			panic(fmt.Sprintf("multiset: SubAll underflow at kind %d", i))
		}
		m.counts[i] -= c
	}
	m.size -= o.size
}

// Support returns the kinds with positive multiplicity, in increasing order.
func (m *Multiset) Support() []int {
	var out []int
	for i, c := range m.counts {
		if c > 0 {
			out = append(out, i)
		}
	}
	return out
}

// IsZeroOn reports whether all the given kinds have multiplicity zero.
func (m *Multiset) IsZeroOn(kinds []int) bool {
	for _, i := range kinds {
		if m.counts[i] != 0 {
			return false
		}
	}
	return true
}

// Key returns a compact byte-string key identifying the multiset contents.
// It is suitable for use as a map key in the explicit-state model checker.
func (m *Multiset) Key() string {
	return string(m.AppendKey(make([]byte, 0, len(m.counts)*3)))
}

// AppendKey appends the compact binary key encoding of the multiset to dst
// and returns the extended slice. The encoding is the varint count sequence
// of Key; for a fixed universe size it is injective (each varint is
// self-delimiting), and FromKey inverts it. AppendKey exists so the
// model checker's hot path can intern states without materialising a string
// per visited configuration.
func (m *Multiset) AppendKey(dst []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, c := range m.counts {
		n := binary.PutVarint(tmp[:], c)
		dst = append(dst, tmp[:n]...)
	}
	return dst
}

// FromKey decodes a key produced by Key/AppendKey back into a multiset over
// a universe of n kinds. It rejects truncated input, trailing bytes and
// negative counts, so it doubles as a validity check in the encoder fuzzing
// harness.
func FromKey(key []byte, n int) (*Multiset, error) {
	m := &Multiset{counts: make([]int64, n)}
	rest := key
	for i := 0; i < n; i++ {
		c, w := binary.Varint(rest)
		if w <= 0 {
			return nil, fmt.Errorf("multiset: truncated key at kind %d", i)
		}
		if c < 0 {
			return nil, fmt.Errorf("multiset: negative count %d at kind %d", c, i)
		}
		m.counts[i] = c
		m.size += c
		rest = rest[w:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("multiset: %d trailing key bytes", len(rest))
	}
	return m, nil
}

// SetFromKey decodes a key produced by Key/AppendKey into m, overwriting its
// counts in place. It is the streaming counterpart of FromKey for hot
// decode loops (the out-of-core explorer reuses one scratch multiset per
// worker instead of allocating per decoded state); the universe size is
// m.Len() and the same validity checks apply. On error m is left in an
// unspecified state.
func (m *Multiset) SetFromKey(key []byte) error {
	rest := key
	m.size = 0
	for i := range m.counts {
		c, w := binary.Varint(rest)
		if w <= 0 {
			return fmt.Errorf("multiset: truncated key at kind %d", i)
		}
		if c < 0 {
			return fmt.Errorf("multiset: negative count %d at kind %d", c, i)
		}
		m.counts[i] = c
		m.size += c
		rest = rest[w:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("multiset: %d trailing key bytes", len(rest))
	}
	return nil
}

// Hash64 is the 64-bit FNV-1a hash of a state key. The model checker's
// sharded interner uses it both as the hash-table key and (via its low bits)
// as the shard selector; it is a fixed function of the key bytes, so shard
// assignment is stable across runs and worker counts.
func Hash64(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// String renders the multiset as {i:count, ...} over the support.
func (m *Multiset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d:%d", i, c)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Format renders the multiset using the provided kind names, e.g.
// "{x:2, y:1}". Kinds without a name fall back to their index.
func (m *Multiset) Format(names []string) string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		if i < len(names) {
			fmt.Fprintf(&sb, "%s:%d", names[i], c)
		} else {
			fmt.Fprintf(&sb, "%d:%d", i, c)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// Enumerate calls fn for every multiset over n kinds with exactly total
// elements, in lexicographic order of count vectors. The multiset passed to
// fn is reused between calls; clone it to retain it. Enumerate is the
// workhorse of the exact experiments, which quantify over "all initial
// configurations with |C| = m".
func Enumerate(n int, total int64, fn func(*Multiset)) {
	if n == 0 {
		if total == 0 {
			fn(New(0))
		}
		return
	}
	m := New(n)
	var rec func(i int, remaining int64)
	rec = func(i int, remaining int64) {
		if i == n-1 {
			m.Set(i, remaining)
			fn(m)
			m.Set(i, 0)
			return
		}
		for c := int64(0); c <= remaining; c++ {
			m.Set(i, c)
			rec(i+1, remaining-c)
		}
		m.Set(i, 0)
	}
	rec(0, total)
}

// NumCompositions returns the number of multisets over n kinds with the
// given total, i.e. C(total+n-1, n-1), saturating at math.MaxInt64 on
// overflow. Callers use it to bound exhaustive enumeration.
func NumCompositions(n int, total int64) int64 {
	if n == 0 {
		if total == 0 {
			return 1
		}
		return 0
	}
	// Compute C(total+n-1, n-1) with overflow saturation.
	const saturated = int64(1) << 62
	result := int64(1)
	k := int64(n - 1)
	m := total + k
	if k > m-k {
		k = m - k
	}
	for i := int64(1); i <= k; i++ {
		if result > saturated/(m-k+i) {
			return saturated
		}
		result = result * (m - k + i) / i
	}
	return result
}

// SortedSupportNames is a helper for deterministic test output: it returns
// the names of the supported kinds sorted lexicographically.
func (m *Multiset) SortedSupportNames(names []string) []string {
	var out []string
	for i, c := range m.counts {
		if c > 0 && i < len(names) {
			out = append(out, names[i])
		}
	}
	sort.Strings(out)
	return out
}
