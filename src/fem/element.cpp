#include "fem/element.hpp"

#include <array>
#include <cmath>
#include <utility>

#include "la/vec_ops.hpp"

namespace fem2::fem {

namespace {

// The kernels compute on fixed-size local matrices.  Each product and sum
// runs in the order DenseMatrix formed it, so every element matrix and
// stress is bit-identical to the DenseMatrix formulation.
template <std::size_t R, std::size_t C>
using Mat = std::array<std::array<double, C>, R>;

template <std::size_t R, std::size_t C>
Mat<C, R> transpose(const Mat<R, C>& a) {
  Mat<C, R> t;
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t c = 0; c < C; ++c) t[c][r] = a[r][c];
  return t;
}

/// a b as DenseMatrix::multiply sums it: each entry from +0.0 over k
/// ascending, skipping a(r, k) == 0.
template <std::size_t R, std::size_t K, std::size_t C>
Mat<R, C> multiply(const Mat<R, K>& a, const Mat<K, C>& b) {
  Mat<R, C> out{};
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t k = 0; k < K; ++k) {
      const double x = a[r][k];
      if (x == 0.0) continue;
      for (std::size_t c = 0; c < C; ++c) out[r][c] += x * b[k][c];
    }
  }
  return out;
}

/// k += alpha BᵀDB for a plane element's 3 x N strain-displacement matrix
/// B, with the arithmetic of add_scaled(k, multiply(multiply(Bᵀ, D), B),
/// alpha): each entry of BᵀD and BᵀDB sums from +0.0 over its inner index
/// ascending, skipping a term whose left factor is 0, and adds into k as
/// alpha times that sum.  A term whose left factor is nonzero is kept
/// where B has a structural zero: with an overflowing D that inf * 0 is a
/// NaN the element matrix must carry.  The loops over columns unroll, so
/// each BᵀDB row sums in registers.
template <std::size_t N>
__attribute__((always_inline)) inline void add_btdb(Mat<N, N>& k,
                                                    const Mat<3, N>& b,
                                                    const Mat<3, 3>& d,
                                                    double alpha) {
  Mat<N, 3> btd{};
  for (std::size_t r = 0; r < N; ++r) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double x = b[j][r];
      if (x == 0.0) continue;
#pragma GCC unroll 3
      for (std::size_t c = 0; c < 3; ++c) btd[r][c] += x * d[j][c];
    }
  }
  for (std::size_t r = 0; r < N; ++r) {
    std::array<double, N> row{};
    for (std::size_t j = 0; j < 3; ++j) {
      const double x = btd[r][j];
      if (x == 0.0) continue;
#pragma GCC unroll 8
      for (std::size_t c = 0; c < N; ++c) row[c] += x * b[j][c];
    }
#pragma GCC unroll 8
    for (std::size_t c = 0; c < N; ++c) k[r][c] += alpha * row[c];
  }
}

/// An element matrix holding the fixed-size matrix a.
template <std::size_t N>
ElementMatrix element_matrix(const Mat<N, N>& a) {
  ElementMatrix out(N);
  for (std::size_t r = 0; r < N; ++r)
    for (std::size_t c = 0; c < N; ++c) out(r, c) = a[r][c];
  return out;
}

struct Frame {
  double length;
  double c;  ///< cos of element axis angle
  double s;  ///< sin
};

Frame element_frame(const Node& a, const Node& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double length = std::hypot(dx, dy);
  FEM2_CHECK_MSG(length > 0.0, "degenerate two-node element");
  return {length, dx / length, dy / length};
}

ElementMatrix bar2_stiffness(const StructureModel& model, const Element& e) {
  const auto& m = model.materials[e.material];
  const Frame f = element_frame(model.nodes[e.nodes[0]],
                                model.nodes[e.nodes[1]]);
  const double k = m.youngs_modulus * m.area / f.length;
  const double cc = f.c * f.c, ss = f.s * f.s, cs = f.c * f.s;
  ElementMatrix out(4);
  const double entries[4][4] = {
      {cc, cs, -cc, -cs},
      {cs, ss, -cs, -ss},
      {-cc, -cs, cc, cs},
      {-cs, -ss, cs, ss},
  };
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) out(r, c) = k * entries[r][c];
  return out;
}

ElementMatrix beam2_stiffness(const StructureModel& model, const Element& e) {
  const auto& m = model.materials[e.material];
  const Frame f = element_frame(model.nodes[e.nodes[0]],
                                model.nodes[e.nodes[1]]);
  const double L = f.length;
  const double ea = m.youngs_modulus * m.area / L;
  const double ei = m.youngs_modulus * m.moment_of_inertia;
  const double b12 = 12.0 * ei / (L * L * L);
  const double b6 = 6.0 * ei / (L * L);
  const double b4 = 4.0 * ei / L;
  const double b2 = 2.0 * ei / L;

  const Mat<6, 6> local = {{
      {ea, 0, 0, -ea, 0, 0},
      {0, b12, b6, 0, -b12, b6},
      {0, b6, b4, 0, -b6, b2},
      {-ea, 0, 0, ea, 0, 0},
      {0, -b12, -b6, 0, b12, -b6},
      {0, b6, b2, 0, -b6, b4},
  }};

  // T rotates global into local; per-node blocks [c s 0; -s c 0; 0 0 1].
  Mat<6, 6> t{};
  for (const std::size_t base : {std::size_t{0}, std::size_t{3}}) {
    t[base + 0][base + 0] = f.c;
    t[base + 0][base + 1] = f.s;
    t[base + 1][base + 0] = -f.s;
    t[base + 1][base + 1] = f.c;
    t[base + 2][base + 2] = 1.0;
  }
  return element_matrix(multiply(multiply(transpose(t), local), t));
}

/// Plane-stress constitutive matrix D.
Mat<3, 3> plane_stress_d(const Material& m) {
  const double e = m.youngs_modulus;
  const double nu = m.poisson_ratio;
  FEM2_CHECK_MSG(nu > -1.0 && nu < 0.5, "invalid Poisson ratio");
  const double f = e / (1.0 - nu * nu);
  Mat<3, 3> d{};
  d[0][0] = f;
  d[0][1] = f * nu;
  d[1][0] = f * nu;
  d[1][1] = f;
  d[2][2] = f * (1.0 - nu) / 2.0;
  return d;
}

/// CST strain-displacement matrix B and area.
std::pair<Mat<3, 6>, double> tri3_b(const StructureModel& model,
                                    const Element& e) {
  const Node& n0 = model.nodes[e.nodes[0]];
  const Node& n1 = model.nodes[e.nodes[1]];
  const Node& n2 = model.nodes[e.nodes[2]];
  const double area = triangle_area(n0, n1, n2);
  FEM2_CHECK_MSG(std::abs(area) > 1e-300, "degenerate triangle element");

  const double b0 = n1.y - n2.y, b1 = n2.y - n0.y, b2 = n0.y - n1.y;
  const double c0 = n2.x - n1.x, c1 = n0.x - n2.x, c2 = n1.x - n0.x;
  const double inv2a = 1.0 / (2.0 * area);

  Mat<3, 6> b{};
  const double bs[3] = {b0, b1, b2};
  const double cs[3] = {c0, c1, c2};
  for (std::size_t i = 0; i < 3; ++i) {
    b[0][2 * i] = bs[i] * inv2a;
    b[1][2 * i + 1] = cs[i] * inv2a;
    b[2][2 * i] = cs[i] * inv2a;
    b[2][2 * i + 1] = bs[i] * inv2a;
  }
  return {b, area};
}

ElementMatrix tri3_stiffness(const StructureModel& model, const Element& e) {
  const auto& m = model.materials[e.material];
  const auto [b, area] = tri3_b(model, e);
  Mat<6, 6> k{};
  add_btdb(k, b, plane_stress_d(m), m.thickness * std::abs(area));
  return element_matrix(k);
}

/// Quad4 B matrix at natural coordinates (xi, eta) plus det(J).
__attribute__((always_inline)) inline std::pair<Mat<3, 8>, double> quad4_b(
    const StructureModel& model, const Element& e, double xi, double eta) {
  // Shape function derivatives wrt natural coordinates.
  const double dn_dxi[4] = {-(1 - eta) / 4, (1 - eta) / 4, (1 + eta) / 4,
                            -(1 + eta) / 4};
  const double dn_deta[4] = {-(1 - xi) / 4, -(1 + xi) / 4, (1 + xi) / 4,
                             (1 - xi) / 4};

  double j00 = 0, j01 = 0, j10 = 0, j11 = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const Node& n = model.nodes[e.nodes[i]];
    j00 += dn_dxi[i] * n.x;
    j01 += dn_dxi[i] * n.y;
    j10 += dn_deta[i] * n.x;
    j11 += dn_deta[i] * n.y;
  }
  const double det = j00 * j11 - j01 * j10;
  FEM2_CHECK_MSG(det > 1e-300, "inverted or degenerate quad element");
  const double i00 = j11 / det, i01 = -j01 / det;
  const double i10 = -j10 / det, i11 = j00 / det;

  Mat<3, 8> b{};
  for (std::size_t i = 0; i < 4; ++i) {
    const double dndx = i00 * dn_dxi[i] + i01 * dn_deta[i];
    const double dndy = i10 * dn_dxi[i] + i11 * dn_deta[i];
    b[0][2 * i] = dndx;
    b[1][2 * i + 1] = dndy;
    b[2][2 * i] = dndy;
    b[2][2 * i + 1] = dndx;
  }
  return {b, det};
}

ElementMatrix quad4_stiffness(const StructureModel& model, const Element& e) {
  const auto& m = model.materials[e.material];
  const Mat<3, 3> d = plane_stress_d(m);
  Mat<8, 8> k{};
  const double g = 1.0 / std::sqrt(3.0);
  for (const double xi : {-g, g}) {
    for (const double eta : {-g, g}) {
      const auto [b, det] = quad4_b(model, e, xi, eta);
      add_btdb(k, b, d, m.thickness * det);  // unit Gauss weights
    }
  }
  return element_matrix(k);
}

/// Plane stress D B u_e of a plane element, each product row by row in
/// la::dot's lane order (as DenseMatrix::multiply(span) formed it).  u_e
/// is the element's displacement vector, two dofs per node.
template <std::size_t N>
std::array<double, 3> plane_stress(const Material& m, const Mat<3, N>& b,
                                   const Element& e, const Displacements& u) {
  const Mat<3, 3> d = plane_stress_d(m);
  std::array<double, N> ue;
  for (std::size_t i = 0; i < N / 2; ++i)
    for (std::size_t dof = 0; dof < 2; ++dof)
      ue[2 * i + dof] = u.at(e.nodes[i], dof);
  std::array<double, 3> strain;
  for (std::size_t r = 0; r < 3; ++r) strain[r] = la::dot(b[r], ue);
  std::array<double, 3> sigma;
  for (std::size_t r = 0; r < 3; ++r) sigma[r] = la::dot(d[r], strain);
  return sigma;
}

}  // namespace

double triangle_area(const Node& a, const Node& b, const Node& c) {
  return 0.5 * ((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y));
}

ElementMatrix element_stiffness(const StructureModel& model,
                                const Element& element) {
  switch (element.type) {
    case ElementType::Bar2: return bar2_stiffness(model, element);
    case ElementType::Beam2: return beam2_stiffness(model, element);
    case ElementType::Tri3: return tri3_stiffness(model, element);
    case ElementType::Quad4: return quad4_stiffness(model, element);
  }
  FEM2_UNREACHABLE("bad ElementType");
}

std::uint64_t element_assembly_flops(const Element& element) {
  const std::uint64_t n =
      element.node_count() * element_dofs_per_node(element.type);
  return 3 * n * n * n + n * n;
}

std::uint64_t element_stress_flops(const Element& element) {
  const std::uint64_t n =
      element.node_count() * element_dofs_per_node(element.type);
  return 2 * 3 * n + 20;
}

double von_mises_plane(double sxx, double syy, double txy) {
  return std::sqrt(sxx * sxx - sxx * syy + syy * syy + 3.0 * txy * txy);
}

ElementStress element_stress(const StructureModel& model,
                             std::size_t element_index,
                             const Displacements& u) {
  FEM2_CHECK(element_index < model.elements.size());
  const Element& e = model.elements[element_index];
  const Material& m = model.materials[e.material];

  ElementStress out;
  out.element = element_index;

  switch (e.type) {
    case ElementType::Bar2:
    case ElementType::Beam2: {
      const Frame f = element_frame(model.nodes[e.nodes[0]],
                                    model.nodes[e.nodes[1]]);
      const double du = u.at(e.nodes[1], 0) - u.at(e.nodes[0], 0);
      const double dv = u.at(e.nodes[1], 1) - u.at(e.nodes[0], 1);
      const double strain = (du * f.c + dv * f.s) / f.length;
      out.sigma_xx = m.youngs_modulus * strain;
      out.von_mises = std::abs(out.sigma_xx);
      return out;
    }
    case ElementType::Tri3:
    case ElementType::Quad4: {
      const auto sigma =
          e.type == ElementType::Tri3
              ? plane_stress(m, tri3_b(model, e).first, e, u)
              : plane_stress(m, quad4_b(model, e, 0.0, 0.0).first,  // centroid
                             e, u);
      out.sigma_xx = sigma[0];
      out.sigma_yy = sigma[1];
      out.tau_xy = sigma[2];
      out.von_mises = von_mises_plane(sigma[0], sigma[1], sigma[2]);
      return out;
    }
  }
  FEM2_UNREACHABLE("bad ElementType");
}

}  // namespace fem2::fem
