package netgen

import (
	"math"

	"repro/internal/geom"
)

// TuneRadiusByCounting is the radius bisection that counts every probe's
// pairs in full: the oracle whose radius tuneRadius must reproduce bit for
// bit. It is exported to the external tests, which reach the paper's
// deployments in internal/eval (an import the package's own tests cannot
// make).
func TuneRadiusByCounting(positions []geom.Vec3, targetDegree float64, bounds geom.AABB) float64 {
	n := len(positions)
	lo, hi := 0.0, bounds.Size().Norm()
	var grid geom.PointGrid
	var buf []int32
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		if 2*float64(countPairs(&grid, positions, mid, math.MaxInt, &buf))/float64(n) < targetDegree {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
