package cluster

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestCodeCountsByCluster: group-derived per-cluster code counts must
// equal the brute-force per-row tally.
func TestCodeCountsByCluster(t *testing.T) {
	v, rows, _ := twoGroupView(t, 400, 3)
	attrs := []string{"Engine", "Drive", "Price"}
	sp, _, err := EncodeSparse(v, rows.Bitmap(v.Rows()), attrs)
	if err != nil {
		t.Fatal(err)
	}
	km, err := KMeans(sp, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := sp.CodeCountsByCluster(km.Assign, km.K)
	want := make([][][]int, km.K)
	for c := range want {
		want[c] = make([][]int, sp.A)
		for a := 0; a < sp.A; a++ {
			want[c][a] = make([]int, sp.Offsets[a+1]-sp.Offsets[a])
		}
	}
	for i := 0; i < sp.N; i++ {
		c := km.Assign[i]
		for a, code := range sp.RowCodes(i) {
			want[c][a][code]++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("group counts diverge from row tally:\n got %v\nwant %v", got, want)
	}
}

// TestCollapseFirstOccurrenceOrder pins the refinement collapse to the
// tuple-keyed numbering it replaced: group ids ascend with each group's
// first point, and representatives point at those first points.
func TestCollapseFirstOccurrenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sp := &SparsePoints{N: 500, A: 3, Dim: 9, Offsets: []int{0, 3, 6, 9}}
	sp.Codes = make([]int32, sp.N*sp.A)
	for i := range sp.Codes {
		sp.Codes[i] = int32(rng.Intn(3))
	}
	gs := sp.collapse()
	firstSeen := make(map[string]int32)
	next := int32(0)
	for i := 0; i < sp.N; i++ {
		key := string(sp.Codes[i*sp.A]) + "," + string(sp.Codes[i*sp.A+1]) + "," + string(sp.Codes[i*sp.A+2])
		id, ok := firstSeen[key]
		if !ok {
			id = next
			firstSeen[key] = id
			next++
			if gs.rep[id] != int32(i) {
				t.Fatalf("group %d rep = %d, want first point %d", id, gs.rep[id], i)
			}
		}
		if gs.of[i] != id {
			t.Fatalf("point %d group = %d, want %d (first-occurrence order)", i, gs.of[i], id)
		}
	}
	if int(next) != gs.g {
		t.Fatalf("group count = %d, want %d", gs.g, next)
	}
	for g := 0; g < gs.g; g++ {
		if !reflect.DeepEqual(gs.rowCodes(g), sp.RowCodes(int(gs.rep[g]))) {
			t.Fatalf("group %d codes disagree with its representative", g)
		}
	}
}
