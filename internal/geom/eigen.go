package geom

import (
	"errors"
	"math"
)

// ErrNotSymmetric is returned by SymmetricEigen when the input matrix is not
// square and symmetric.
var ErrNotSymmetric = errors.New("geom: matrix is not square symmetric")

// ErrNoConvergence is returned by SymmetricEigen when the eigeniteration
// does not converge within its budget. For the small, well-conditioned
// matrices this library produces (local MDS Gram matrices, Horn quaternion
// matrices) this indicates a bug or pathological input rather than an
// expected condition.
var ErrNoConvergence = errors.New("geom: eigendecomposition did not converge")

// SymmetricEigen computes the full eigendecomposition of a dense symmetric
// matrix a (given as rows). It returns the eigenvalues in descending order
// and the matching eigenvectors as rows of vecs (vecs[k] is the unit
// eigenvector for values[k]). Eigenvector signs are arbitrary, as always:
// every caller in this repository is sign-invariant (MDS coordinates are
// defined up to reflection, Horn quaternions up to negation, pseudo-inverse
// outer products square the vectors).
//
// The engine is Householder tridiagonalization followed by implicit-shift
// QL (the EISPACK tred2/tql2 pair): O(n³) with a small constant and exact
// convergence behavior. A QL sweep that does not converge returns
// ErrNoConvergence.
//
// The input is not modified. Intended for the small matrices that arise in
// local-neighborhood MDS (tens of rows), not for large-scale linear algebra.
// SymmetricEigen is EigenScratch.SymmetricEigen on a fresh scratch.
func SymmetricEigen(a [][]float64) (values []float64, vecs [][]float64, err error) {
	var s EigenScratch
	return s.SymmetricEigen(a)
}

// EigenScratch is SymmetricEigen's working storage, reusable across calls
// of any size, so a caller that decomposes one small matrix per node
// allocates only when a matrix outgrows every earlier one. The zero value
// is ready to use. A scratch must not be shared between goroutines.
type EigenScratch struct {
	z, d, e, values, backing []float64
	idx                      []int
	vecs                     [][]float64
}

// SymmetricEigen is the package-level SymmetricEigen computed in s's
// storage, bit for bit: values, vectors and their order. The returned
// slices alias s and are valid until the next call on s.
func (s *EigenScratch) SymmetricEigen(a [][]float64) (values []float64, vecs [][]float64, err error) {
	n := len(a)
	if err := checkSymmetric(a); err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, nil
	}

	// Column-major working matrix; tred2 accumulates the Householder
	// transformations in place and tql2 rotates them into eigenvectors
	// (contiguous columns).
	s.z = grow(s.z, n*n)
	s.d = grow(s.d, n)
	s.e = grow(s.e, n)
	z, d, e := s.z, s.d, s.e
	for i, row := range a {
		for j, v := range row {
			z[j*n+i] = v
		}
	}
	tred2(z, d, e, n)
	if err := tql2(z, d, e, n); err != nil {
		return nil, nil, err
	}

	// Sort eigenpairs by descending eigenvalue. Column indices are carried
	// through the sort so each output vector is one copy from z. The
	// insertion sort moves an index left only past a strictly smaller
	// eigenvalue, so it is stable: for eigenvalues that are not NaN it
	// yields exactly the permutation sort.SliceStable yields, without its
	// allocations.
	s.idx = grow(s.idx, n)
	idx := s.idx
	for i := range idx {
		idx[i] = i
		for j := i; j > 0 && d[idx[j]] > d[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}

	s.values = grow(s.values, n)
	s.backing = grow(s.backing, n*n)
	s.vecs = grow(s.vecs, n)
	values, vecs = s.values, s.vecs
	for k, col := range idx {
		values[k] = d[col]
		vecs[k] = s.backing[k*n : (k+1)*n]
		copy(vecs[k], z[col*n:(col+1)*n])
	}
	return values, vecs, nil
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short. The contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// symmetricEigen4 diagonalizes the symmetric 4×4 matrix a with the same
// tred2/tql2 recurrences on fixed-size stack storage and returns the unit
// eigenvector of its largest eigenvalue (top) — the only output Horn
// quaternion alignment needs. top is bit-identical to SymmetricEigen's
// leading eigenvector: identical recurrences on identical storage order,
// and the max-scan breaks ties toward the lowest index exactly as the
// stable descending sort does. ok is false when QL does not converge.
//
// The same run also serves −a. Negating a negates tred2's diagonal and
// subdiagonal and leaves its Householder norms and reflectors unchanged;
// tql2's shifts and rotations carry the negation through, flipping at most
// an eigenvector's sign. So the run on −a returns −d and the same
// eigenvectors up to sign, bit for bit, except where an exact zero meets a
// sign-dependent step: a tred2 pivot f picks its reflector's sign by
// f > 0, and a zero in a, in d or in e[1:] can carry a signed zero into a
// later rounding. When none of these is zero, bottom (haveBottom) is the
// eigenvector of a's smallest eigenvalue, lowest index on ties: the top
// eigenvector the run on −a returns, up to a sign a quaternion's rotation
// does not see (TestHornRotationsMatchTwoSolves pins this). Otherwise
// callers solve −a separately.
func symmetricEigen4(a *[4][4]float64) (top, bottom [4]float64, haveBottom, ok bool) {
	var zb [16]float64
	var db, eb [4]float64
	z, d, e := zb[:], db[:], eb[:]
	odd := true
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			z[j*4+i] = a[i][j]
			odd = odd && a[i][j] != 0
		}
	}
	odd = !tred2(z, d, e, 4) && odd
	for i := 0; i < 4; i++ {
		odd = odd && d[i] != 0 && (i == 0 || e[i] != 0)
	}
	if tql2(z, d, e, 4) != nil {
		return top, bottom, false, false
	}
	hi, lo := 0, 0
	for i := 1; i < 4; i++ {
		if d[i] > d[hi] {
			hi = i
		}
		if d[i] < d[lo] {
			lo = i
		}
	}
	copy(top[:], z[hi*4:])
	copy(bottom[:], z[lo*4:])
	return top, bottom, odd, true
}

func checkSymmetric(a [][]float64) error {
	n := len(a)
	for _, row := range a {
		if len(row) != n {
			return ErrNotSymmetric
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a[i][j]-a[j][i]) > 1e-9*(1+math.Abs(a[i][j])) {
				return ErrNotSymmetric
			}
		}
	}
	return nil
}

// tred2 reduces the symmetric matrix in z to tridiagonal form by
// Householder similarity transformations, accumulating the transformations
// in z. On return d holds the diagonal and e[1..n-1] the subdiagonal
// (e[0] = 0). This is the standard EISPACK tred2 recurrence, on z stored
// column-major (z[j*n+i] is entry (i, j)): the EISPACK loops walk columns,
// so their inner loops run over contiguous storage. zeroPivot reports
// whether some Householder pivot f was exactly zero, the one branch of the
// recurrence that is not odd in its input.
func tred2(z, d, e []float64, n int) (zeroPivot bool) {
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow, then build the Householder
		// vector for row i.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			zeroPivot = zeroPivot || f == 0
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			// Apply the similarity transformation to the remaining
			// leading submatrix.
			for j := 0; j < i; j++ {
				f = d[j]
				z[i*n+j] = f
				zj := z[j*n : j*n+i]
				g = e[j] + zj[j]*f
				for k := j + 1; k <= i-1; k++ {
					g += zj[k] * d[k]
					e[k] += zj[k] * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				zj := z[j*n : j*n+i]
				for k := j; k <= i-1; k++ {
					zj[k] -= f*e[k] + g*d[k]
				}
				d[j] = zj[i-1]
				z[j*n+i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		h := d[i+1]
		zi1 := z[(i+1)*n : (i+1)*n+i+1]
		if h != 0 {
			for k, v := range zi1 {
				d[k] = v / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				g := 0.0
				for k, v := range zi1 {
					g += v * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		clear(zi1)
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[(n-1)*n+n-1] = 1
	e[0] = 0
	return zeroPivot
}

// tql2 diagonalizes the tridiagonal matrix (d, e) with the implicit-shift
// QL algorithm, rotating the accumulated transformations in z (column-major,
// as tred2 leaves them) into the eigenvectors: on return column k —
// z[k*n:(k+1)*n] — is the unit eigenvector for d[k]. The EISPACK tql2
// recurrence; returns ErrNoConvergence if any eigenvalue needs more than 50
// QL sweeps (for tridiagonal symmetric matrices 4–5 is typical).
func tql2(z, d, e []float64, n int) error {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= 50 {
					return ErrNoConvergence
				}
				// Implicit shift from the 2×2 leading block.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// QL sweep with plane rotations.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					zi, zi1 := z[i*n:(i+1)*n], z[(i+1)*n:(i+2)*n]
					zi = zi[:len(zi1)]
					for k, h := range zi1 {
						zi1[k] = s*zi[k] + c*h
						zi[k] = c*zi[k] - s*h
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
