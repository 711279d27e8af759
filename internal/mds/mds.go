// Package mds implements multidimensional-scaling localization for one-hop
// neighborhoods, the local-coordinate substrate of Algorithm 1 step (I). The
// paper adopts the improved MDS-based localization of Shang & Ruml [31]; this
// package follows the same recipe: complete the partial (measured) distance
// matrix with local shortest paths, run classical MDS on the double-centered
// squared-distance matrix, and optionally refine with SMACOF stress
// majorization using only the actually measured pairs.
//
// Coordinates produced here are local: they are determined only up to a
// rigid motion and reflection, which is all Unit Ball Fitting needs (an
// empty ball is empty in any rigid frame).
package mds

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Options configures Localize.
type Options struct {
	// Dims is the embedding dimension. The zero value means 3.
	Dims int
	// SmacofIterations refines the classical-MDS solution with this many
	// stress-majorization sweeps over the measured pairs. Zero disables
	// refinement. Negative is invalid.
	SmacofIterations int
	// MinRho guards the SMACOF update against coincident points. The
	// zero value means 1e-9.
	MinRho float64
	// Restarts adds this many extra SMACOF runs from randomly perturbed
	// initial configurations (deterministic, seeded by RestartSeed),
	// keeping the lowest-stress result. Classical MDS on the
	// shortest-path-completed matrix is a biased initializer, and
	// SMACOF's majorization is prone to local minima on sparse
	// neighborhoods; a few restarts recover most of them. Zero disables
	// restarts.
	Restarts int
	// RestartSeed seeds the restart perturbations.
	RestartSeed int64
}

func (o Options) withDefaults() Options {
	if o.Dims == 0 {
		o.Dims = 3
	}
	if o.MinRho == 0 {
		o.MinRho = 1e-9
	}
	return o
}

// ErrBadOptions is returned for invalid option values.
var ErrBadOptions = errors.New("mds: invalid options")

// ErrDisconnected is returned when shortest-path completion cannot fill the
// distance matrix — the points do not form a connected measurement graph.
// For the closed one-hop neighborhoods this library localizes, the center
// node measures every member, so this indicates a caller bug.
var ErrDisconnected = errors.New("mds: measurement graph is disconnected")

// DistFunc reports the measured distance between members a and b of the
// point set being localized (indices in [0, n)), with ok=false when the
// pair was not measured. It must be symmetric; Localize queries each
// unordered pair once with a < b.
type DistFunc func(a, b int) (float64, bool)

// Localize embeds n points into Options.Dims-dimensional coordinates from
// partial pairwise distance measurements. The result coordinates are in an
// arbitrary rigid frame. Localize is Scratch.Localize on a fresh scratch
// with no destination.
func Localize(n int, dist DistFunc, opts Options) ([]geom.Vec3, error) {
	var s Scratch
	return s.Localize(nil, n, dist, opts)
}

// Scratch is Localize's working storage: the distance and observation
// matrices, the double-centered Gram matrix, SMACOF's measured pairs,
// Laplacian factor and pseudo-inverse, the update and restart buffers, and
// an eigensolver workspace. It is reusable across calls of any size, so a
// caller that localizes one neighborhood per node allocates only when a
// neighborhood outgrows every earlier one. The zero value is ready to use.
// A Scratch must not be shared between goroutines.
type Scratch struct {
	d, b, chol, lap, pinv matrix[float64]
	observed              matrix[bool]
	rowMean, deg, col     []float64
	pairs                 []obsPair
	y, trial              []geom.Vec3
	eig                   geom.EigenScratch
}

// Localize is the package-level Localize computed in s's storage, bit for
// bit. It writes the n coordinates into dst when cap(dst) >= n and into a
// new slice otherwise, and returns them; they never alias s.
func (s *Scratch) Localize(dst []geom.Vec3, n int, dist DistFunc, opts Options) ([]geom.Vec3, error) {
	opts = opts.withDefaults()
	if opts.Dims < 1 || opts.Dims > 3 || opts.SmacofIterations < 0 || opts.Restarts < 0 {
		return nil, ErrBadOptions
	}
	if cap(dst) < n {
		dst = make([]geom.Vec3, n)
	}
	coords := dst[:n]
	switch n {
	case 0:
		return coords, nil
	case 1:
		coords[0] = geom.Zero
		return coords, nil
	}

	d, observed := s.buildMatrix(n, dist)
	if err := completeShortestPaths(d); err != nil {
		return nil, err
	}
	if err := s.classical(coords, d, opts.Dims); err != nil {
		return nil, fmt.Errorf("classical MDS: %w", err)
	}
	if opts.SmacofIterations == 0 {
		return coords, nil
	}
	s.smacof(coords, d, observed, opts)
	if opts.Restarts == 0 {
		return coords, nil
	}

	// Restarted refinement: perturb the best-known configuration and
	// re-majorize, keeping whichever run fits the measured distances
	// best. The perturbation magnitude is a fraction of the
	// configuration's spread, enough to hop out of a reflection-trapped
	// local minimum. coords always holds the best configuration.
	bestStress := stressAgainst(coords, d, observed)
	rng := rand.New(rand.NewSource(opts.RestartSeed + int64(n)*1_000_003))
	spread := 0.0
	for _, c := range coords {
		spread = math.Max(spread, c.Norm())
	}
	if spread == 0 {
		spread = 1
	}
	s.trial = grow(s.trial, n)
	trial := s.trial
	for r := 0; r < opts.Restarts; r++ {
		for i := range trial {
			trial[i] = coords[i].Add(geom.RandomUnitVector(rng).Scale(0.4 * spread * rng.Float64()))
		}
		s.smacof(trial, d, observed, opts)
		if st := stressAgainst(trial, d, observed); st < bestStress {
			copy(coords, trial)
			bestStress = st
		}
	}
	return coords, nil
}

// stressAgainst is raw (unnormalized) stress over the observed pairs.
func stressAgainst(coords []geom.Vec3, d [][]float64, observed [][]bool) float64 {
	var sum float64
	for a := range coords {
		for b := a + 1; b < len(coords); b++ {
			if !observed[a][b] {
				continue
			}
			rho := coords[a].Dist(coords[b])
			sum += (rho - d[a][b]) * (rho - d[a][b])
		}
	}
	return sum
}

// matrix is a reusable n×n matrix whose rows are carved out of one flat
// backing array.
type matrix[T any] struct {
	backing []T
	rows    [][]T
}

// zeroed returns m resized to n×n with every entry zero, reallocating only
// when m is too small.
func (m *matrix[T]) zeroed(n int) [][]T {
	m.backing = grow(m.backing, n*n)
	clear(m.backing)
	m.rows = grow(m.rows, n)
	for i := range m.rows {
		m.rows[i] = m.backing[i*n : (i+1)*n]
	}
	return m.rows
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short. The contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// buildMatrix assembles the symmetric distance matrix with +Inf for
// unmeasured pairs, alongside an observation mask.
func (s *Scratch) buildMatrix(n int, dist DistFunc) ([][]float64, [][]bool) {
	d := s.d.zeroed(n)
	observed := s.observed.zeroed(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if v, ok := dist(a, b); ok {
				d[a][b], d[b][a] = v, v
				observed[a][b], observed[b][a] = true, true
			}
		}
	}
	return d, observed
}

// completeShortestPaths runs Floyd–Warshall in place, replacing +Inf
// entries with shortest measured-path sums. Neighborhood matrices are
// small (≈ degree+1 rows), but the cubic pass still costs about 7 % of the
// Fig. 1 pipeline.
func completeShortestPaths(d [][]float64) error {
	n := len(d)
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			di := d[i]
			dik := di[k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j, dkj := range dk {
				if via := dik + dkj; via < di[j] {
					di[j], d[j][i] = via, via
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.IsInf(d[i][j], 1) {
				return ErrDisconnected
			}
		}
	}
	return nil
}

// classical performs classical (Torgerson) MDS into coords: eigendecompose
// the double-centered squared-distance matrix and scale the top
// eigenvectors.
func (s *Scratch) classical(coords []geom.Vec3, d [][]float64, dims int) error {
	n := len(d)
	// B = -1/2 · J·D²·J with J = I - 11ᵀ/n, computed via row/column/grand
	// means of the squared distances. b holds D² first, then is centered
	// in place.
	b := s.b.zeroed(n)
	s.rowMean = grow(s.rowMean, n)
	rowMean := s.rowMean
	clear(rowMean)
	var grand float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i][j] = d[i][j] * d[i][j]
			rowMean[i] += b[i][j]
		}
		rowMean[i] /= float64(n)
		grand += rowMean[i]
	}
	grand /= float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i][j] = -0.5 * (b[i][j] - rowMean[i] - rowMean[j] + grand)
		}
	}
	vals, vecs, err := s.eig.SymmetricEigen(b)
	if err != nil {
		return err
	}
	clear(coords)
	for axis := 0; axis < dims && axis < n; axis++ {
		if vals[axis] <= 0 {
			break // remaining axes carry no positive variance
		}
		scale := math.Sqrt(vals[axis])
		for i := 0; i < n; i++ {
			v := scale * vecs[axis][i]
			switch axis {
			case 0:
				coords[i].X = v
			case 1:
				coords[i].Y = v
			default:
				coords[i].Z = v
			}
		}
	}
	return nil
}

// smacof refines coordinates in place with the Guttman transform
// X⁺ = V⁺·B(X)·X, the exact stress-majorization step, restricted to the
// observed pairs (the actually measured one-hop distances), which are more
// trustworthy than the shortest-path-completed entries. V is the weight
// Laplacian; its pseudo-inverse is computed once per call. Stress decreases
// monotonically under this update.
func (s *Scratch) smacof(coords []geom.Vec3, d [][]float64, observed [][]bool, opts Options) {
	n := len(coords)
	// Collect the measured pairs once: B(X)'s off-diagonal support is
	// exactly these pairs, so each majorization sweep costs
	// O(pairs + n²) instead of three dense n² passes over mostly-zero
	// entries.
	pairs := s.pairs[:0]
	s.deg = grow(s.deg, n)
	deg := s.deg
	clear(deg)
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			if observed[a][c] {
				pairs = append(pairs, obsPair{a: a, c: c, d: d[a][c]})
				deg[a]++
				deg[c]++
			}
		}
	}
	s.pairs = pairs
	if len(pairs) == 0 {
		return
	}
	vPinv, ok := s.laplacianPinv(deg, pairs, n)
	if !ok {
		// Disconnected observation graph: the Cholesky shortcut does not
		// apply; fall back to the eigendecomposition pseudo-inverse of
		// the explicit Laplacian.
		v := s.lap.zeroed(n)
		for _, p := range pairs {
			v[p.a][p.c], v[p.c][p.a] = -1, -1
		}
		for a := 0; a < n; a++ {
			v[a][a] = deg[a]
		}
		var err error
		vPinv, err = s.pseudoInverse(v)
		if err != nil {
			return // leave the classical-MDS solution in place
		}
	}

	s.y = grow(s.y, n)
	y := s.y
	for iter := 0; iter < opts.SmacofIterations; iter++ {
		// Y = B(X)·X: pair (a,c) contributes s·(x_a − x_c) to row a and
		// its negation to row c, with s = d_ac / max(ρ_ac, MinRho) — the
		// pair-local form of the Guttman transform's B matrix.
		for a := range y {
			y[a] = geom.Vec3{}
		}
		for _, p := range pairs {
			diff := coords[p.a].Sub(coords[p.c])
			rho := diff.Norm()
			if rho < opts.MinRho {
				rho = opts.MinRho
			}
			t := diff.Scale(p.d / rho)
			y[p.a] = y[p.a].Add(t)
			y[p.c] = y[p.c].Sub(t)
		}
		// X⁺ = V⁺·Y, accumulated per component in c order.
		for a := 0; a < n; a++ {
			var ax, ay, az float64
			for c, w := range vPinv[a][:n] {
				ax += y[c].X * w
				ay += y[c].Y * w
				az += y[c].Z * w
			}
			coords[a] = geom.Vec3{X: ax, Y: ay, Z: az}
		}
	}
}

// obsPair is one measured distance (a < c) — the sparse support SMACOF
// iterates over.
type obsPair struct {
	a, c int
	d    float64
}

// laplacianPinv computes the pseudo-inverse of the observation-weight
// Laplacian V through the identity (V + 11ᵀ/n)⁻¹ = V⁺ + 11ᵀ/n, valid when
// the observation graph is connected (null(V) = span(1)). The SMACOF
// update only ever applies the result to Y = B(X)·X, whose rows sum to
// zero (each pair contributes ±t), so the extra 11ᵀ/n term annihilates and
// (V + 11ᵀ/n)⁻¹ substitutes for V⁺ exactly. The shifted matrix is
// symmetric positive definite, so a Cholesky inversion does the job in a
// fraction of the eigendecomposition's operations. ok=false reports a
// failed pivot — a disconnected observation graph — and the caller falls
// back to the eigen route.
func (s *Scratch) laplacianPinv(deg []float64, pairs []obsPair, n int) ([][]float64, bool) {
	a := s.chol.zeroed(n)
	shift := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := a[i]
		for j := 0; j < n; j++ {
			row[j] = shift
		}
		row[i] += deg[i]
	}
	for _, p := range pairs {
		a[p.a][p.c]--
		a[p.c][p.a]--
	}
	// Cholesky A = L·Lᵀ, L accumulating in the lower triangle.
	for j := 0; j < n; j++ {
		aj := a[j]
		sum := aj[j]
		for _, ajk := range aj[:j] {
			sum -= ajk * ajk
		}
		if sum <= 1e-9 {
			return nil, false
		}
		ljj := math.Sqrt(sum)
		aj[j] = ljj
		for i := j + 1; i < n; i++ {
			ai := a[i]
			v := ai[j]
			for k, ajk := range aj[:j] {
				v -= ai[k] * ajk
			}
			ai[j] = v / ljj
		}
	}
	// A⁻¹ column by column: forward-substitute L·w = eₑ, then
	// back-substitute Lᵀ·x = w.
	out := s.pinv.zeroed(n)
	s.col = grow(s.col, n)
	col := s.col
	for e := 0; e < n; e++ {
		for i := 0; i < n; i++ {
			ai := a[i]
			v := 0.0
			if i == e {
				v = 1
			}
			for k, aik := range ai[:i] {
				v -= aik * col[k]
			}
			col[i] = v / ai[i]
		}
		for i := n - 1; i >= 0; i-- {
			v := col[i]
			for k := i + 1; k < n; k++ {
				v -= a[k][i] * col[k]
			}
			col[i] = v / a[i][i]
		}
		for i := 0; i < n; i++ {
			out[i][e] = col[i]
		}
	}
	return out, true
}

// pseudoInverse computes the Moore–Penrose pseudo-inverse of a symmetric
// matrix via its eigendecomposition, zeroing near-null directions (the
// weight Laplacian is singular along translations).
func (s *Scratch) pseudoInverse(m [][]float64) ([][]float64, error) {
	n := len(m)
	vals, vecs, err := s.eig.SymmetricEigen(m)
	if err != nil {
		return nil, err
	}
	var maxAbs float64
	for _, v := range vals {
		if math.Abs(v) > maxAbs {
			maxAbs = math.Abs(v)
		}
	}
	cutoff := 1e-10 * (maxAbs + 1)
	inv := s.pinv.zeroed(n)
	for k, v := range vals {
		if math.Abs(v) <= cutoff {
			continue
		}
		w := 1 / v
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				inv[i][j] += w * vecs[k][i] * vecs[k][j]
			}
		}
	}
	return inv, nil
}

// Stress returns the normalized residual stress of an embedding against the
// measured distances: sqrt( Σ(ρ_ab - d_ab)² / Σ d_ab² ) over measured pairs.
// Zero means a perfect fit; it is the standard goodness-of-fit metric for
// MDS localization.
func Stress(coords []geom.Vec3, dist DistFunc) float64 {
	var num, den float64
	n := len(coords)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d, ok := dist(a, b)
			if !ok {
				continue
			}
			rho := coords[a].Dist(coords[b])
			num += (rho - d) * (rho - d)
			den += d * d
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// ResidualRMS returns the root-mean-square absolute residual |ρ_ab - d_ab|
// over the measured pairs — the locally observable estimate of a frame's
// coordinate uncertainty (in distance units). Nodes use it to size the
// strict-interior tolerance of Unit Ball Fitting adaptively.
func ResidualRMS(coords []geom.Vec3, dist DistFunc) float64 {
	var num float64
	count := 0
	n := len(coords)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d, ok := dist(a, b)
			if !ok {
				continue
			}
			rho := coords[a].Dist(coords[b])
			num += (rho - d) * (rho - d)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return math.Sqrt(num / float64(count))
}
