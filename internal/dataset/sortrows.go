package dataset

import (
	"math"
	"sort"
)

// sortSegKeys sorts composite segment keys — the high 48 bits of a
// row's orderedFloatBits with the row's 16-bit offset in the low bytes —
// and returns the sorted slice (which may be keys itself or scratch).
// vals backs the tie fix-up: any group equal in the truncated value bits
// whose full values differ is re-sorted by (value, offset).
func sortSegKeys(keys []uint64, vals []float64) []uint64 {
	n := len(keys)
	if n < 128 {
		for i := 1; i < n; i++ {
			k := keys[i]
			j := i - 1
			for j >= 0 && keys[j] > k {
				keys[j+1] = keys[j]
				j--
			}
			keys[j+1] = k
		}
		return fixupSegTies(keys, vals)
	}
	tmp := make([]uint64, n)
	src, dst := keys, tmp
	var count [256]int
	for shift := uint(16); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, k := range src {
			count[byte(k>>shift)]++
		}
		if count[byte(src[0]>>shift)] == n {
			continue
		}
		pos := 0
		for i, c := range count {
			count[i] = pos
			pos += c
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	return fixupSegTies(src, vals)
}

// fixupSegTies restores exact (value, offset) order inside groups whose
// truncated 48-bit value keys collide but whose full values differ.
func fixupSegTies(src []uint64, vals []float64) []uint64 {
	n := len(src)
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j]>>16 == src[i]>>16 {
			j++
		}
		if j-i > 1 {
			run := src[i:j]
			v0 := vals[uint16(run[0])]
			for _, k := range run[1:] {
				if vals[uint16(k)] != v0 {
					sort.Slice(run, func(a, b int) bool {
						va, vb := vals[uint16(run[a])], vals[uint16(run[b])]
						if va != vb {
							return va < vb
						}
						return uint16(run[a]) < uint16(run[b])
					})
					break
				}
			}
		}
		i = j
	}
	return src
}

// orderedFloatBits maps a non-NaN float to a uint64 whose unsigned order
// matches float order, with -0 and +0 mapped to the same key so that
// rows holding either sort purely by row index — exactly the tie-break
// of the comparator this sort replaces.
func orderedFloatBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b == 1<<63 { // -0.0: compares equal to +0.0, must share its key
		b = 0
	}
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortUint16s sorts a ascending — two counting-sort passes over the low
// and high bytes. Range materialization packs sorted-order windows
// (value order) back into offset order with it; windows are at most
// arrayMaxCard long, so the byte histograms stay L1-resident.
func sortUint16s(a []uint16) {
	n := len(a)
	if n < 48 {
		for i := 1; i < n; i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	tmp := make([]uint16, n)
	src, dst := a, tmp
	var count [256]int
	for shift := uint(0); shift < 16; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, v := range src {
			count[byte(v>>shift)]++
		}
		if count[byte(src[0]>>shift)] == n {
			continue
		}
		pos := 0
		for i, c := range count {
			count[i] = pos
			pos += c
		}
		for _, v := range src {
			b := byte(v >> shift)
			dst[count[b]] = v
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
