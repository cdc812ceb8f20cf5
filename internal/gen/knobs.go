package gen

import (
	"os"
	"strconv"
	"testing"
)

// EquivKnobs reads the randomized-suite scaling knobs the nightly CI
// workflow sets: GTPQ_EQUIV_SEED rotates the workload seed (logged so
// a failure reproduces locally) and GTPQ_EQUIV_CASES scales the case
// count. The internal/equiv driver reads its workload size through
// this helper, the one place the nightly contract is read.
func EquivKnobs(t testing.TB, defaultSeed int64, defaultCases int) (seed int64, cases int) {
	t.Helper()
	seed, cases = defaultSeed, defaultCases
	if s := os.Getenv("GTPQ_EQUIV_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("GTPQ_EQUIV_SEED=%q: %v", s, err)
		}
		seed = v
	}
	if s := os.Getenv("GTPQ_EQUIV_CASES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("GTPQ_EQUIV_CASES=%q: %v", s, err)
		}
		cases = v
	}
	t.Logf("equivalence workload: seed=%d cases=%d (override with GTPQ_EQUIV_SEED / GTPQ_EQUIV_CASES)", seed, cases)
	return seed, cases
}
