package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSymmetricEigenDiagonal(t *testing.T) {
	a := [][]float64{
		{3, 0, 0},
		{0, 1, 0},
		{0, 0, 2},
	}
	vals, vecs, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if !almostEqual(vals[i], w, 1e-10) {
			t.Errorf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
	// Eigenvector for eigenvalue 3 must be ±e0.
	if !almostEqual(math.Abs(vecs[0][0]), 1, 1e-10) {
		t.Errorf("vec for λ=3 is %v", vecs[0])
	}
}

func TestSymmetricEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	vals, vecs, err := SymmetricEigen([][]float64{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 3, 1e-12) || !almostEqual(vals[1], 1, 1e-12) {
		t.Errorf("eigenvalues = %v", vals)
	}
	// λ=3 eigenvector is ±(1,1)/√2.
	if !almostEqual(math.Abs(vecs[0][0]), 1/math.Sqrt2, 1e-9) {
		t.Errorf("eigenvector = %v", vecs[0])
	}
}

func TestSymmetricEigenRejectsBadInput(t *testing.T) {
	if _, _, err := SymmetricEigen([][]float64{{1, 2}}); err != ErrNotSymmetric {
		t.Errorf("ragged input: err = %v", err)
	}
	if _, _, err := SymmetricEigen([][]float64{{1, 2}, {3, 4}}); err != ErrNotSymmetric {
		t.Errorf("asymmetric input: err = %v", err)
	}
}

func TestSymmetricEigenEmpty(t *testing.T) {
	vals, vecs, err := SymmetricEigen(nil)
	if err != nil || vals != nil || vecs != nil {
		t.Errorf("empty input: %v %v %v", vals, vecs, err)
	}
}

// randomSymmetric builds a random symmetric matrix with a known spectrum by
// conjugating a diagonal matrix with random rotations.
func randomSymmetric(rng *rand.Rand, n int) ([][]float64, []float64) {
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = rng.NormFloat64() * 10
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = diag[i]
	}
	// Apply random Givens rotations G^T M G to scramble while preserving
	// the spectrum and symmetry.
	for k := 0; k < 3*n; k++ {
		p := rng.Intn(n)
		q := rng.Intn(n)
		if p == q {
			continue
		}
		theta := rng.Float64() * math.Pi
		c, s := math.Cos(theta), math.Sin(theta)
		for i := 0; i < n; i++ {
			mp, mq := m[i][p], m[i][q]
			m[i][p] = c*mp - s*mq
			m[i][q] = s*mp + c*mq
		}
		for i := 0; i < n; i++ {
			mp, mq := m[p][i], m[q][i]
			m[p][i] = c*mp - s*mq
			m[q][i] = s*mp + c*mq
		}
	}
	return m, diag
}

func TestSymmetricEigenRandomSpectrumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(14)
		m, diag := randomSymmetric(rng, n)
		vals, vecs, err := SymmetricEigen(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Spectrum must match the planted diagonal (sorted descending).
		want := append([]float64(nil), diag...)
		for i := 0; i < len(want); i++ {
			for j := i + 1; j < len(want); j++ {
				if want[j] > want[i] {
					want[i], want[j] = want[j], want[i]
				}
			}
		}
		for i := range want {
			if !almostEqual(vals[i], want[i], 1e-6*(1+math.Abs(want[i]))) {
				t.Fatalf("trial %d: eigenvalue %d = %v, want %v", trial, i, vals[i], want[i])
			}
		}
		// Each (λ, v) pair must satisfy A·v = λ·v.
		for k := range vals {
			for i := 0; i < n; i++ {
				var av float64
				for j := 0; j < n; j++ {
					av += m[i][j] * vecs[k][j]
				}
				if !almostEqual(av, vals[k]*vecs[k][i], 1e-6*(1+math.Abs(vals[k]))) {
					t.Fatalf("trial %d: A·v != λ·v at k=%d i=%d (%v vs %v)",
						trial, k, i, av, vals[k]*vecs[k][i])
				}
			}
		}
		// Eigenvectors must be orthonormal.
		for a := range vecs {
			for b := a; b < len(vecs); b++ {
				var dot float64
				for j := 0; j < n; j++ {
					dot += vecs[a][j] * vecs[b][j]
				}
				want := 0.0
				if a == b {
					want = 1.0
				}
				if !almostEqual(dot, want, 1e-8) {
					t.Fatalf("trial %d: vectors %d,%d dot = %v, want %v", trial, a, b, dot, want)
				}
			}
		}
	}
}

// TestSymmetricEigenMatchesJacobiOracle cross-checks the tred2/tql2 engine
// against the retained cyclic-Jacobi implementation — two iterations with
// no shared code path. Eigenvalues must agree to machine precision;
// eigenvectors up to sign (both engines emit arbitrary signs).
func TestSymmetricEigenMatchesJacobiOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20)
		m, _ := randomSymmetric(rng, n)
		vals, vecs, err := SymmetricEigen(m)
		if err != nil {
			t.Fatalf("trial %d: ql: %v", trial, err)
		}
		jvals, jvecs, err := symmetricEigenJacobi(m)
		if err != nil {
			t.Fatalf("trial %d: jacobi: %v", trial, err)
		}
		var scale float64
		for _, v := range jvals {
			scale = math.Max(scale, math.Abs(v))
		}
		for k := range vals {
			if !almostEqual(vals[k], jvals[k], 1e-9*(1+scale)) {
				t.Fatalf("trial %d: eigenvalue %d: ql %v, jacobi %v", trial, k, vals[k], jvals[k])
			}
		}
		for k := range vecs {
			// Skip (near-)degenerate eigenvalues, where individual
			// eigenvectors are not unique — only the spanned subspace is.
			degenerate := (k > 0 && math.Abs(jvals[k]-jvals[k-1]) < 1e-6*(1+scale)) ||
				(k+1 < n && math.Abs(jvals[k+1]-jvals[k]) < 1e-6*(1+scale))
			if degenerate {
				continue
			}
			var dot float64
			for i := 0; i < n; i++ {
				dot += vecs[k][i] * jvecs[k][i]
			}
			if !almostEqual(math.Abs(dot), 1, 1e-7) {
				t.Fatalf("trial %d: eigenvector %d disagrees: |dot| = %v", trial, k, math.Abs(dot))
			}
		}
	}
}

// TestSymmetricEigenTop4MatchesGeneral: the stack-allocated 4×4 fast path
// must return bit-for-bit the same leading eigenvector as the general
// engine — same recurrences, same storage order, same tie-break.
func TestSymmetricEigenTop4MatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		m, _ := randomSymmetric(rng, 4)
		var a [4][4]float64
		for i := 0; i < 4; i++ {
			copy(a[i][:], m[i])
		}
		vec, _, _, ok := symmetricEigen4(&a)
		if !ok {
			t.Fatalf("trial %d: QL failed to converge", trial)
		}
		_, vecs, err := SymmetricEigen(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 4; i++ {
			if vec[i] != vecs[0][i] {
				t.Fatalf("trial %d: component %d: fast %v, general %v",
					trial, i, vec[i], vecs[0][i])
			}
		}
	}
}

func TestSymmetricEigenTop4AllocsZero(t *testing.T) {
	a := [4][4]float64{
		{4, 1, 0, 0},
		{1, 3, 1, 0},
		{0, 1, 2, 1},
		{0, 0, 1, 1},
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, ok := symmetricEigen4(&a); !ok {
			t.Fatal("did not converge")
		}
	})
	if allocs != 0 {
		t.Errorf("symmetricEigen4 allocates %v objects per call, want 0", allocs)
	}
}

func TestSymmetricEigenInputNotModified(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 2}}
	if _, _, err := SymmetricEigen(a); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[0][1] != 1 || a[1][0] != 1 || a[1][1] != 2 {
		t.Errorf("input modified: %v", a)
	}
}

// symmetricEigenJacobi is the cyclic Jacobi engine SymmetricEigen used
// before the tred2/tql2 rewrite, kept verbatim as the independent oracle
// for the cross-check tests (Jacobi's all-pairs rotations share no code
// path with the QL iteration).
func symmetricEigenJacobi(a [][]float64) (values []float64, vecs [][]float64, err error) {
	n := len(a)
	if err := checkSymmetric(a); err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, nil
	}

	// Working copy m and accumulated rotations v (v starts as identity).
	m := make([][]float64, n)
	v := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = append([]float64(nil), a[i]...)
		v[i] = make([]float64, n)
		v[i][i] = 1
	}

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += m[i][j] * m[i][j]
			}
		}
		return s
	}
	var frob float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			frob += m[i][j] * m[i][j]
		}
	}
	tol := 1e-22 * (frob + 1)

	const maxSweeps = 100
	converged := false
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() <= tol {
			converged = true
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p][q]
				if apq == 0 {
					continue
				}
				// Classic Jacobi rotation zeroing m[p][q].
				theta := (m[q][q] - m[p][p]) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				for k := 0; k < n; k++ {
					mkp, mkq := m[k][p], m[k][q]
					m[k][p] = c*mkp - s*mkq
					m[k][q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p][k], m[q][k]
					m[p][k] = c*mpk - s*mqk
					m[q][k] = s*mpk + c*mqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	if !converged && offDiag() > tol {
		return nil, nil, ErrNoConvergence
	}

	// Extract eigenpairs and sort by descending eigenvalue.
	type pair struct {
		val float64
		col int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{val: m[i][i], col: i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	values = make([]float64, n)
	vecs = make([][]float64, n)
	for k, p := range pairs {
		values[k] = p.val
		vec := make([]float64, n)
		for i := 0; i < n; i++ {
			vec[i] = v[i][p.col]
		}
		vecs[k] = vec
	}
	return values, vecs, nil
}

// symmetricEigenSliceStable is SymmetricEigen as it was before
// EigenScratch: fresh storage per call and sort.SliceStable for the
// descending order. It is the oracle for the scratch's in-place sort.
func symmetricEigenSliceStable(a [][]float64) ([]float64, [][]float64, error) {
	n := len(a)
	z := make([]float64, n*n)
	for i, row := range a {
		for j, v := range row {
			z[j*n+i] = v
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z, d, e, n)
	if err := tql2(z, d, e, n); err != nil {
		return nil, nil, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return d[idx[i]] > d[idx[j]] })
	values := make([]float64, n)
	vecs := make([][]float64, n)
	for k, col := range idx {
		values[k] = d[col]
		vecs[k] = append([]float64(nil), z[col*n:(col+1)*n]...)
	}
	return values, vecs, nil
}

// TestEigenScratchMatchesSymmetricEigen: one scratch reused across
// growing and shrinking sizes returns bit for bit what the package
// function and the sort.SliceStable oracle return — values, vectors and
// their order, ties included (diagonal matrices with repeated entries keep
// tied eigenvalues exactly equal through tred2/tql2).
func TestEigenScratchMatchesSymmetricEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s EigenScratch
	sizes := []int{1, 5, 12, 3, 20, 2, 12, 7, 1, 15, 4, 9}
	for trial := 0; trial < 4*len(sizes); trial++ {
		n := sizes[trial%len(sizes)]
		var m [][]float64
		switch trial % 4 {
		case 0, 1:
			m, _ = randomSymmetric(rng, n)
		case 2: // diagonal with ties
			m = make([][]float64, n)
			for i := range m {
				m[i] = make([]float64, n)
				m[i][i] = float64(rng.Intn(3))
			}
		case 3: // small integers, often degenerate
			m = make([][]float64, n)
			for i := range m {
				m[i] = make([]float64, n)
			}
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					v := float64(rng.Intn(3) - 1)
					m[i][j], m[j][i] = v, v
				}
			}
		}
		wantVals, wantVecs, err := symmetricEigenSliceStable(m)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		pkgVals, pkgVecs, err := SymmetricEigen(m)
		if err != nil {
			t.Fatalf("trial %d: SymmetricEigen: %v", trial, err)
		}
		vals, vecs, err := s.SymmetricEigen(m)
		if err != nil {
			t.Fatalf("trial %d: scratch: %v", trial, err)
		}
		for _, got := range []struct {
			name string
			vals []float64
			vecs [][]float64
		}{{"SymmetricEigen", pkgVals, pkgVecs}, {"scratch", vals, vecs}} {
			if len(got.vals) != n || len(got.vecs) != n {
				t.Fatalf("trial %d (n=%d): %s returned %d values, %d vectors", trial, n, got.name, len(got.vals), len(got.vecs))
			}
			for k := 0; k < n; k++ {
				if math.Float64bits(got.vals[k]) != math.Float64bits(wantVals[k]) {
					t.Fatalf("trial %d (n=%d): %s value %d = %v, oracle %v", trial, n, got.name, k, got.vals[k], wantVals[k])
				}
				if len(got.vecs[k]) != n {
					t.Fatalf("trial %d (n=%d): %s vector %d has length %d", trial, n, got.name, k, len(got.vecs[k]))
				}
				for i := 0; i < n; i++ {
					if math.Float64bits(got.vecs[k][i]) != math.Float64bits(wantVecs[k][i]) {
						t.Fatalf("trial %d (n=%d): %s vector %d component %d = %v, oracle %v", trial, n, got.name, k, i, got.vecs[k][i], wantVecs[k][i])
					}
				}
			}
		}
	}
}

func TestEigenScratchReusedAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	big, _ := randomSymmetric(rng, 12)
	small, _ := randomSymmetric(rng, 5)
	var s EigenScratch
	if _, _, err := s.SymmetricEigen(big); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, m := range [][][]float64{small, big} {
			if _, _, err := s.SymmetricEigen(m); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("a warm EigenScratch allocates %v objects per call pair, want 0", allocs)
	}
}
