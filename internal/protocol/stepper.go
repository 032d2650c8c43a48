package protocol

import (
	"math/bits"
	"slices"

	"repro/internal/multiset"
)

// Stepper precomputes a pair index over δ so that enabled-transition and
// successor queries cost O(support · |Q|/64) word operations instead of
// O(|δ|). Converted protocols (§7.3) have hundreds of thousands of
// transitions but only a handful of occupied states at any time, which
// makes the index the difference between seconds and hours in simulation
// and model checking.
//
// The index is a compressed adjacency list over the pairs (q, r) that have
// at least one non-silent transition, numbered in (q asc, r asc) order.
// q's partners are stored as bitset words, words[rows[q]:rows[q+1]], so
// joining them against the occupied states is a word-wise AND: a merge
// join of two sorted sets, 64 states at a time. Pair k owns
//
//   - trans[pairs[k].trans:pairs[k+1].trans]: indices into
//     Protocol.Transitions of its non-silent transitions, in δ order, which
//     EnabledTransitions returns;
//   - disps[pairs[k].disp:pairs[k+1].disp]: the distinct displacement
//     vectors of those transitions in first-occurrence order, from which
//     Successors builds configurations.
//
// A final sentinel pair closes the last spans.
//
// Viewed as a Petri net (arXiv 2102.11619), a transition q, r ↦ q', r' adds
// the displacement −q − r + q' + r' to a configuration, touching at most
// four counters. Two enabled transitions with equal displacements lead from
// c to the same successor c + δ, so successors are deduplicated by
// comparing displacements: no clone, key or hash per candidate.
type Stepper struct {
	p     *Protocol
	rows  []int32
	words []partnerWord
	pairs []pairSpan
	trans []int32
	disps []displacement
}

// partnerWord holds the partners r of one state q with r/64 = word, as
// bits r%64, and the pair number of the lowest of them.
type partnerWord struct {
	bits        uint64
	word, first int32
}

// pairSpan is the start of one pair's runs in Stepper.trans and
// Stepper.disps.
type pairSpan struct {
	trans, disp int32
}

// displacement is the nonzero part of a transition's effect, as up to four
// packed words state<<3 | (delta+4) in increasing state order, padded with
// zeros. delta lies in [−2, 2], so a used word is never zero and equal
// effects have equal encodings. Packing limits states to 2²⁹.
type displacement [4]uint32

// displacementOf returns the effect of firing t. Non-silent transitions
// have a nonzero effect: t is silent exactly when {q, r} = {q', r'}.
func displacementOf(t Transition) displacement {
	var states, deltas [4]int
	n := 0
	add := func(q, d int) {
		for i := 0; i < n; i++ {
			if states[i] == q {
				deltas[i] += d
				return
			}
		}
		// Insert keeping states sorted.
		i := n
		for ; i > 0 && states[i-1] > q; i-- {
			states[i], deltas[i] = states[i-1], deltas[i-1]
		}
		states[i], deltas[i] = q, d
		n++
	}
	add(t.Q, -1)
	add(t.R, -1)
	add(t.Q2, 1)
	add(t.R2, 1)
	var d displacement
	m := 0
	for i := 0; i < n; i++ {
		if deltas[i] != 0 {
			d[m] = uint32(states[i])<<3 | uint32(deltas[i]+4)
			m++
		}
	}
	return d
}

// apply adds the displacement to c.
func (d displacement) apply(c *multiset.Multiset) {
	for _, w := range d {
		if w == 0 {
			return
		}
		c.Add(int(w>>3), int64(w&7)-4)
	}
}

// NewStepper builds the index for p.
func NewStepper(p *Protocol) *Stepper {
	n := len(p.States)
	live := make([]int32, 0, len(p.Transitions))
	for i, t := range p.Transitions {
		if !t.IsSilent() {
			live = append(live, int32(i))
		}
	}
	// Two stable counting sorts, by R and then by Q, order the transitions
	// by pair and keep δ order within a pair.
	order := countingSort(countingSort(live, n, func(t Transition) int { return t.R }, p), n,
		func(t Transition) int { return t.Q }, p)

	s := &Stepper{
		p:     p,
		rows:  make([]int32, n+1),
		pairs: make([]pairSpan, 0, len(order)+1),
		trans: order,
		disps: make([]displacement, 0, len(order)),
	}
	for k := 0; k < len(order); {
		t := p.Transitions[order[k]]
		pair := int32(len(s.pairs))
		s.pairs = append(s.pairs, pairSpan{trans: int32(k), disp: int32(len(s.disps))})
		w := int32(t.R / 64)
		if last := len(s.words) - 1; s.rows[t.Q+1] == 0 || s.words[last].word != w {
			s.words = append(s.words, partnerWord{word: w, first: pair})
			s.rows[t.Q+1]++
		}
		s.words[len(s.words)-1].bits |= 1 << (t.R % 64)
		first := len(s.disps)
		for ; k < len(order); k++ {
			u := p.Transitions[order[k]]
			if u.Q != t.Q || u.R != t.R {
				break
			}
			if d := displacementOf(u); !slices.Contains(s.disps[first:], d) {
				s.disps = append(s.disps, d)
			}
		}
	}
	for q := 0; q < n; q++ {
		s.rows[q+1] += s.rows[q]
	}
	s.pairs = append(s.pairs, pairSpan{trans: int32(len(order)), disp: int32(len(s.disps))})
	return s
}

// countingSort returns the transition indices idx stably sorted by
// key(p.Transitions[i]) ∈ [0, n).
func countingSort(idx []int32, n int, key func(Transition) int, p *Protocol) []int32 {
	pos := make([]int, n+1)
	for _, i := range idx {
		pos[key(p.Transitions[i])+1]++
	}
	for k := 0; k < n; k++ {
		pos[k+1] += pos[k]
	}
	out := make([]int32, len(idx))
	for _, i := range idx {
		k := key(p.Transitions[i])
		out[pos[k]] = i
		pos[k]++
	}
	return out
}

// Protocol returns the indexed protocol.
func (s *Stepper) Protocol() *Protocol { return s.p }

// appendEnabledPairs appends to dst the number of every pair enabled in c —
// both states occupied, and C(q) ≥ 2 when q = r — in (q asc, r asc) order.
// For each occupied q it intersects q's partner words with the occupied
// states' bitset; a set bit's pair number is its word's first pair plus
// the partners below it in the word.
func (s *Stepper) appendEnabledPairs(dst []int32, c *multiset.Multiset) []int32 {
	var buf [16]uint64
	occupied := buf[:0]
	for base := 0; base < c.Len(); base += 64 {
		var w uint64
		for i := base; i < min(base+64, c.Len()); i++ {
			if c.Count(i) > 0 {
				w |= 1 << (i - base)
			}
		}
		occupied = append(occupied, w)
	}
	for qw, qbits := range occupied {
		for ; qbits != 0; qbits &= qbits - 1 {
			q := qw*64 + bits.TrailingZeros64(qbits)
			for _, pw := range s.words[s.rows[q]:s.rows[q+1]] {
				m := pw.bits & occupied[pw.word]
				if int(pw.word) == qw && c.Count(q) < 2 {
					m &^= 1 << (q % 64)
				}
				for ; m != 0; m &= m - 1 {
					below := pw.bits & (m&-m - 1)
					dst = append(dst, pw.first+int32(bits.OnesCount64(below)))
				}
			}
		}
	}
	return dst
}

// EnabledTransitions returns the non-silent transitions enabled in c,
// grouped by pair in (q asc, r asc) order and in δ order within a pair.
func (s *Stepper) EnabledTransitions(c *multiset.Multiset) []Transition {
	var buf [64]int32
	var out []Transition
	for _, k := range s.appendEnabledPairs(buf[:0], c) {
		for _, i := range s.trans[s.pairs[k].trans:s.pairs[k+1].trans] {
			out = append(out, s.p.Transitions[i])
		}
	}
	return out
}

// Successors returns the distinct configurations reachable from c in one
// transition. The order is that of EnabledTransitions with duplicates
// (equal successors) after the first dropped: enabled pairs in (q asc,
// r asc) order, then δ order within a pair. The explorer assigns state ids
// in this order, so it is part of the contract.
//
// The successors share one backing array: each is an independent
// configuration, but a caller that keeps some of them keeps the whole
// batch's memory alive, so it should Clone the ones it retains if it drops
// the rest.
//
// Duplicates are found by scanning the displacements kept so far, which is
// quadratic in the number of successors. The verify classes have few: per
// configuration, optimized Figure 1 averages 2.45 (max 6), optimized
// czerner n = 1 averages 1.02 (max 2) and the free walk 5.00 (max 6). On a
// synthetic protocol with ~k² distinct successors, the scan beat a map up
// to about 130 successors per configuration (28 vs 37 µs) and lost from
// about 240 on (75 vs 67 µs; 2× slower at 550).
func (s *Stepper) Successors(c *multiset.Multiset) []*multiset.Multiset {
	var pairBuf [64]int32
	var dispBuf [16]displacement
	found := dispBuf[:0]
	for _, k := range s.appendEnabledPairs(pairBuf[:0], c) {
		for _, d := range s.disps[s.pairs[k].disp:s.pairs[k+1].disp] {
			if !slices.Contains(found, d) {
				found = append(found, d)
			}
		}
	}
	if len(found) == 0 {
		return nil
	}
	out := c.CloneN(len(found))
	for i, d := range found {
		d.apply(out[i])
	}
	return out
}
