package reach

import (
	"fmt"
	"sync/atomic"

	"gtpq/internal/graph"
)

// DefaultKind is the backend Build selects for an empty kind: the
// paper's 3-hop index.
const DefaultKind = "threehop"

var buildCount atomic.Int64

// BuildCount returns the number of index constructions performed by
// this process (every NewThreeHop or NewTC run, directly or through
// Build, counts one).
// Loading a version-2 snapshot bypasses construction entirely, and a
// version-1 one builds once, which tests assert by reading this
// counter around a load.
func BuildCount() int64 { return buildCount.Load() }

// Kinds lists the backend names Build accepts, sorted.
func Kinds() []string { return []string{"tc", "threehop"} }

// Build constructs the index kind for g (empty kind: DefaultKind). The
// graph is frozen as a side effect.
func Build(kind string, g *graph.Graph) (ContourIndex, error) {
	switch kind {
	case "", "threehop":
		return NewThreeHop(g), nil
	case "tc":
		t, err := newTC(g)
		if err != nil {
			return nil, err // not a nil *TC inside the interface
		}
		return t, nil
	}
	return nil, fmt.Errorf("reach: unknown index kind %q (available: %v)", kind, Kinds())
}
