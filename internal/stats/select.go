package stats

import "math/bits"

// selectSmall is the length at or below which selection sorts instead:
// the whole sample in SelectPercentile, the remaining range in
// selectRank.
const selectSmall = 16

// SelectPercentile returns exactly what PercentileSorted would return
// for x sorted by SortFloats, without sorting: an in-place quickselect
// (median-of-three pivot) puts the rank-i order statistic at x[i], and
// the interpolation neighbour sorted[i+1] is the minimum of x[i+1:].
// x is permuted but remains a permutation of its input. Partitioning
// past a depth of about 2·log2(n) hands the remaining range to
// SortFloats, so adversarial orders stay O(n log n). Inputs must not
// contain NaN, as for SortFloats. −0 and +0 compare equal here, so where
// both occur a zero result may carry either sign; SortFloats itself
// orders them by position below its radix threshold.
func SelectPercentile(x []float64, p float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, errPercentileRange
	}
	if len(x) <= selectSmall {
		// A handful of values (a node's sojourns in one interval) sort
		// faster than they select.
		SortFloats(x)
		return PercentileSorted(x, p)
	}
	// The rank arithmetic mirrors PercentileSorted's.
	pos := p * float64(len(x)-1)
	i := int(pos)
	if i+1 >= len(x) {
		i = len(x) - 1
	}
	selectRank(x, i)
	if i+1 == len(x) {
		return x[i], nil
	}
	next := x[i+1]
	for _, y := range x[i+2:] {
		if y < next {
			next = y
		}
	}
	frac := pos - float64(i)
	return x[i]*(1-frac) + next*frac, nil
}

// selectRank permutes x so that x[k] holds the value it would hold were
// x sorted, everything before it is ≤ x[k] and everything after is
// ≥ x[k]. Hoare partitioning stops on keys equal to the pivot, so runs
// of duplicates split evenly instead of degrading to quadratic time.
func selectRank(x []float64, k int) {
	lo, hi := 0, len(x)-1
	depth := 2 * bits.Len(uint(len(x)))
	for hi-lo >= selectSmall {
		if depth == 0 {
			SortFloats(x[lo : hi+1])
			return
		}
		depth--
		mid := lo + (hi-lo)/2
		if x[mid] < x[lo] {
			x[mid], x[lo] = x[lo], x[mid]
		}
		if x[hi] < x[lo] {
			x[hi], x[lo] = x[lo], x[hi]
		}
		if x[hi] < x[mid] {
			x[hi], x[mid] = x[mid], x[hi]
		}
		pivot := x[mid]
		i, j := lo, hi
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for pivot < x[j] {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// Now x[lo..j] ≤ pivot, x[i..hi] ≥ pivot, and anything strictly
		// between j and i equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	for a := lo + 1; a <= hi; a++ {
		v := x[a]
		b := a - 1
		for b >= lo && x[b] > v {
			x[b+1] = x[b]
			b--
		}
		x[b+1] = v
	}
}
