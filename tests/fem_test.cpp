// FEM substrate tests: element formulations against analytic solutions,
// solver agreement, substructuring equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fem/analysis.hpp"
#include "fem/assembly.hpp"
#include "fem/element.hpp"
#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "fem/substructure.hpp"
#include "la/dense.hpp"
#include "support/rng.hpp"

namespace fem2::fem {
namespace {

/// An element matrix as a DenseMatrix, for its products and checks.
la::DenseMatrix dense(const ElementMatrix& k) {
  la::DenseMatrix out(k.size(), k.size());
  for (std::size_t r = 0; r < k.size(); ++r)
    for (std::size_t c = 0; c < k.size(); ++c) out(r, c) = k(r, c);
  return out;
}

Material soft_material() {
  Material m;
  m.youngs_modulus = 1000.0;
  m.poisson_ratio = 0.25;
  m.area = 0.01;
  m.moment_of_inertia = 1e-4;
  m.thickness = 0.1;
  return m;
}

TEST(FemElements, BarAxialStiffness) {
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(2, 0);
  model.add_element(ElementType::Bar2, {0, 1}, mat);
  const auto k = element_stiffness(model, model.elements[0]);
  const double ea_l = 1000.0 * 0.01 / 2.0;
  EXPECT_NEAR(k(0, 0), ea_l, 1e-12);
  EXPECT_NEAR(k(0, 2), -ea_l, 1e-12);
  EXPECT_NEAR(k(1, 1), 0.0, 1e-12);  // no transverse stiffness
  EXPECT_TRUE(dense(k).is_symmetric());
}

TEST(FemElements, BarUnderAxialLoad) {
  // Fixed-free bar, axial tip force: delta = FL/EA, sigma = F/A.
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(1.5, 0);
  model.add_element(ElementType::Bar2, {0, 1}, mat);
  model.fix_node(0);
  model.add_constraint(1, 1);  // keep it 1-D
  model.add_load("axial", 1, 0, 50.0);

  const auto result = analyze(model, "axial");
  const double expected_delta = 50.0 * 1.5 / (1000.0 * 0.01);
  EXPECT_NEAR(result.solution.displacements.at(1, 0), expected_delta, 1e-9);
  EXPECT_NEAR(result.stresses[0].sigma_xx, 50.0 / 0.01, 1e-6);
}

TEST(FemElements, CantileverBeamTipDeflection) {
  // Euler-Bernoulli: delta_tip = P L^3 / (3 E I), exact for beam elements.
  FrameOptions options;
  options.segments = 8;
  options.length = 4.0;
  options.material = soft_material();
  const double p = 10.0;
  StructureModel model = make_cantilever_beam(options, p);

  const auto result = analyze(model, "tip",
                              {.kind = SolverKind::SkylineDirect});
  const double e = options.material.youngs_modulus;
  const double i = options.material.moment_of_inertia;
  const double expected = -p * std::pow(options.length, 3) / (3.0 * e * i);
  EXPECT_NEAR(result.solution.displacements.at(options.segments, 1), expected,
              std::abs(expected) * 1e-9);
}

TEST(FemElements, TriangleRigidBodyMotionHasNoStrainEnergy) {
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(1, 0);
  model.add_node(0, 1);
  model.add_element(ElementType::Tri3, {0, 1, 2}, mat);
  const auto k = element_stiffness(model, model.elements[0]);
  // Uniform translation: zero force.
  const std::vector<double> translation = {1, 0, 1, 0, 1, 0};
  const auto f = dense(k).multiply(translation);
  for (const double v : f) EXPECT_NEAR(v, 0.0, 1e-9);
  EXPECT_TRUE(dense(k).is_symmetric(1e-9));
}

TEST(FemElements, Quad4PatchUniaxialStress) {
  // Single quad stretched along x: sigma_xx = E * strain / (1 - nu^2) *
  // adjusted; with free lateral contraction sigma_xx = E*eps_xx.
  StructureModel model;
  Material m = soft_material();
  m.poisson_ratio = 0.0;  // decouple for an exact hand value
  const auto mat = model.add_material(m);
  model.add_node(0, 0);
  model.add_node(1, 0);
  model.add_node(1, 1);
  model.add_node(0, 1);
  model.add_element(ElementType::Quad4, {0, 1, 2, 3}, mat);

  Displacements u;
  u.dofs_per_node = 2;
  // eps_xx = 0.01 uniform.
  u.values = {0, 0, 0.01, 0, 0.01, 0, 0, 0};
  const auto s = element_stress(model, 0, u);
  EXPECT_NEAR(s.sigma_xx, 1000.0 * 0.01, 1e-9);
  EXPECT_NEAR(s.sigma_yy, 0.0, 1e-9);
  EXPECT_NEAR(s.tau_xy, 0.0, 1e-9);
}

// --- bit-identity with the DenseMatrix formulation -------------------------
//
// The kernels below are test-local copies of the element kernels as they
// were before they moved to fixed-size arrays: B, D and every product as
// heap-allocated DenseMatrix temporaries, stresses through
// DenseMatrix::multiply(span).  The library must reproduce them bit for
// bit, including DenseMatrix::multiply's skip of zero multipliers, which
// shows only when a product meets an inf.
namespace before {

la::DenseMatrix plane_stress_d(const Material& m) {
  const double e = m.youngs_modulus;
  const double nu = m.poisson_ratio;
  FEM2_CHECK_MSG(nu > -1.0 && nu < 0.5, "invalid Poisson ratio");
  const double f = e / (1.0 - nu * nu);
  la::DenseMatrix d(3, 3);
  d(0, 0) = f;
  d(0, 1) = f * nu;
  d(1, 0) = f * nu;
  d(1, 1) = f;
  d(2, 2) = f * (1.0 - nu) / 2.0;
  return d;
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

la::DenseMatrix bar2_stiffness(const StructureModel& model,
                               const Element& e) {
  const auto& m = model.materials[e.material];
  const Frame f = element_frame(model.nodes[e.nodes[0]],
                                model.nodes[e.nodes[1]]);
  const double k = m.youngs_modulus * m.area / f.length;
  const double cc = f.c * f.c, ss = f.s * f.s, cs = f.c * f.s;
  la::DenseMatrix out(4, 4);
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

la::DenseMatrix beam2_stiffness(const StructureModel& model,
                                const Element& e) {
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

  la::DenseMatrix local(6, 6);
  const double entries[6][6] = {
      {ea, 0, 0, -ea, 0, 0},
      {0, b12, b6, 0, -b12, b6},
      {0, b6, b4, 0, -b6, b2},
      {-ea, 0, 0, ea, 0, 0},
      {0, -b12, -b6, 0, b12, -b6},
      {0, b6, b2, 0, -b6, b4},
  };
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c) local(r, c) = entries[r][c];

  // T rotates global into local; per-node blocks [c s 0; -s c 0; 0 0 1].
  la::DenseMatrix t(6, 6);
  for (const std::size_t base : {std::size_t{0}, std::size_t{3}}) {
    t(base + 0, base + 0) = f.c;
    t(base + 0, base + 1) = f.s;
    t(base + 1, base + 0) = -f.s;
    t(base + 1, base + 1) = f.c;
    t(base + 2, base + 2) = 1.0;
  }
  return t.transpose().multiply(local).multiply(t);
}

/// CST strain-displacement matrix B (3×6) and area.
std::pair<la::DenseMatrix, double> tri3_b(const StructureModel& model,
                                          const Element& e) {
  const Node& n0 = model.nodes[e.nodes[0]];
  const Node& n1 = model.nodes[e.nodes[1]];
  const Node& n2 = model.nodes[e.nodes[2]];
  const double area = triangle_area(n0, n1, n2);
  FEM2_CHECK_MSG(std::abs(area) > 1e-300, "degenerate triangle element");

  const double b0 = n1.y - n2.y, b1 = n2.y - n0.y, b2 = n0.y - n1.y;
  const double c0 = n2.x - n1.x, c1 = n0.x - n2.x, c2 = n1.x - n0.x;
  const double inv2a = 1.0 / (2.0 * area);

  la::DenseMatrix b(3, 6);
  const double bs[3] = {b0, b1, b2};
  const double cs[3] = {c0, c1, c2};
  for (std::size_t i = 0; i < 3; ++i) {
    b(0, 2 * i) = bs[i] * inv2a;
    b(1, 2 * i + 1) = cs[i] * inv2a;
    b(2, 2 * i) = cs[i] * inv2a;
    b(2, 2 * i + 1) = bs[i] * inv2a;
  }
  return {b, area};
}

la::DenseMatrix tri3_stiffness(const StructureModel& model,
                               const Element& e) {
  const auto& m = model.materials[e.material];
  auto [b, area] = tri3_b(model, e);
  const la::DenseMatrix d = plane_stress_d(m);
  la::DenseMatrix k = b.transpose().multiply(d).multiply(b);
  const double scale = m.thickness * std::abs(area);
  la::DenseMatrix out(6, 6);
  out.add_scaled(k, scale);
  return out;
}

/// Quad4 B matrix (3×8) at natural coordinates (xi, eta) plus det(J).
std::pair<la::DenseMatrix, double> quad4_b(const StructureModel& model,
                                           const Element& e, double xi,
                                           double eta) {
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

  la::DenseMatrix b(3, 8);
  for (std::size_t i = 0; i < 4; ++i) {
    const double dndx = i00 * dn_dxi[i] + i01 * dn_deta[i];
    const double dndy = i10 * dn_dxi[i] + i11 * dn_deta[i];
    b(0, 2 * i) = dndx;
    b(1, 2 * i + 1) = dndy;
    b(2, 2 * i) = dndy;
    b(2, 2 * i + 1) = dndx;
  }
  return {b, det};
}

la::DenseMatrix quad4_stiffness(const StructureModel& model,
                                const Element& e) {
  const auto& m = model.materials[e.material];
  const la::DenseMatrix d = plane_stress_d(m);
  la::DenseMatrix k(8, 8);
  const double g = 1.0 / std::sqrt(3.0);
  for (const double xi : {-g, g}) {
    for (const double eta : {-g, g}) {
      auto [b, det] = quad4_b(model, e, xi, eta);
      const la::DenseMatrix kb = b.transpose().multiply(d).multiply(b);
      k.add_scaled(kb, m.thickness * det);  // unit Gauss weights
    }
  }
  return k;
}

/// Element displacement vector in the element's own dof layout, extracted
/// from the model-wide displacement vector.
std::vector<double> element_displacements(const Element& e,
                                          const Displacements& u) {
  const std::size_t edof = element_dofs_per_node(e.type);
  std::vector<double> out;
  out.reserve(e.node_count() * edof);
  for (std::size_t i = 0; i < e.node_count(); ++i)
    for (std::size_t d = 0; d < edof; ++d)
      out.push_back(u.at(e.nodes[i], d));
  return out;
}

la::DenseMatrix element_stiffness(const StructureModel& model,
                                  const Element& element) {
  switch (element.type) {
    case ElementType::Bar2: return bar2_stiffness(model, element);
    case ElementType::Beam2: return beam2_stiffness(model, element);
    case ElementType::Tri3: return tri3_stiffness(model, element);
    case ElementType::Quad4: return quad4_stiffness(model, element);
  }
  FEM2_UNREACHABLE("bad ElementType");
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
    case ElementType::Tri3: {
      auto [b, area] = tri3_b(model, e);
      (void)area;
      const la::DenseMatrix d = plane_stress_d(m);
      const auto ue = element_displacements(e, u);
      const auto strain = b.multiply(ue);
      const auto sigma = d.multiply(strain);
      out.sigma_xx = sigma[0];
      out.sigma_yy = sigma[1];
      out.tau_xy = sigma[2];
      out.von_mises = von_mises_plane(sigma[0], sigma[1], sigma[2]);
      return out;
    }
    case ElementType::Quad4: {
      auto [b, det] = quad4_b(model, e, 0.0, 0.0);  // centroid
      (void)det;
      const la::DenseMatrix d = plane_stress_d(m);
      const auto ue = element_displacements(e, u);
      const auto strain = b.multiply(ue);
      const auto sigma = d.multiply(strain);
      out.sigma_xx = sigma[0];
      out.sigma_yy = sigma[1];
      out.tau_xy = sigma[2];
      out.von_mises = von_mises_plane(sigma[0], sigma[1], sigma[2]);
      return out;
    }
  }
  FEM2_UNREACHABLE("bad ElementType");
}


}  // namespace before

/// Bitwise equality, so a -0.0/+0.0 or NaN-payload drift also fails.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Row-per-line text of a matrix at full precision, for failure messages.
std::string matrix_text(const la::DenseMatrix& m) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << "[";
    for (std::size_t c = 0; c < m.cols(); ++c) os << (c ? " " : "") << m(r, c);
    os << "]\n";
  }
  return os.str();
}

/// Compares one element's stiffness and stress (under displacements u)
/// with the DenseMatrix formulation; both must throw or neither.
void expect_element_matches(const StructureModel& model, std::size_t index,
                            const Displacements& u, const std::string& what) {
  const Element& e = model.elements[index];
  bool threw = false;
  la::DenseMatrix want;
  try {
    want = before::element_stiffness(model, e);
  } catch (const support::CheckError&) {
    threw = true;
  }
  if (threw) {
    EXPECT_THROW(element_stiffness(model, e), support::CheckError) << what;
    EXPECT_THROW(element_stress(model, index, u), support::CheckError)
        << what;
    return;
  }
  const ElementMatrix got = element_stiffness(model, e);
  ASSERT_EQ(got.size(), want.rows()) << what;
  ASSERT_EQ(got.size(), want.cols()) << what;
  EXPECT_TRUE(same_bits(got.data(), want.data())) << what << " K_e\n"
                                                  << matrix_text(dense(got))
                                                  << matrix_text(want);
  const ElementStress s = element_stress(model, index, u);
  const ElementStress w = before::element_stress(model, index, u);
  const double got_s[] = {s.sigma_xx, s.sigma_yy, s.tau_xy, s.von_mises};
  const double want_s[] = {w.sigma_xx, w.sigma_yy, w.tau_xy, w.von_mises};
  EXPECT_TRUE(same_bits(got_s, want_s)) << what << " stress";
}

Displacements random_displacements(const StructureModel& model,
                                   support::Rng& rng) {
  Displacements u;
  u.dofs_per_node = model.dofs_per_node();
  u.values.resize(model.nodes.size() * u.dofs_per_node);
  for (double& v : u.values) v = rng.uniform(-1e-3, 1e-3);
  return u;
}

TEST(ElementBitIdentity, SkewedRotatedAndScaledElements) {
  // Each element's nodes are the unit square's corners, jittered (skew),
  // stretched along one axis, rotated, scaled by 1e-6..1e6 and shifted.
  // Every 13th material overflows D to inf, and every 11th element is
  // shrunk by 1e-110, so beam terms like 12EI/L^3 overflow too.
  support::Rng rng(18);
  constexpr ElementType kTypes[] = {ElementType::Bar2, ElementType::Beam2,
                                    ElementType::Tri3, ElementType::Quad4};
  for (int trial = 0; trial < 1200; ++trial) {
    const ElementType type = kTypes[trial % 4];
    StructureModel model;
    Material m;
    m.youngs_modulus = std::pow(10.0, rng.uniform(-3.0, 13.0));
    if (trial % 13 == 0) m.youngs_modulus = 1.7e308;
    m.poisson_ratio = rng.uniform(-0.9, 0.49);
    m.area = rng.uniform(1e-4, 1.0);
    m.moment_of_inertia = rng.uniform(1e-8, 1e-2);
    m.thickness = rng.uniform(1e-3, 1.0);
    model.add_material(m);
    double scale = std::pow(10.0, rng.uniform(-6.0, 6.0));
    if (trial % 11 == 0) scale *= 1e-110;
    const double stretch = rng.uniform(0.2, 5.0);
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const double ca = std::cos(angle), sa = std::sin(angle);
    const double ox = rng.uniform(-100.0, 100.0);
    const double oy = rng.uniform(-100.0, 100.0);
    const double corners[4][2] = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
    for (const auto& c : corners) {
      const double x = (c[0] + rng.uniform(-0.3, 0.3)) * scale;
      const double y = (c[1] + rng.uniform(-0.3, 0.3)) * scale * stretch;
      model.add_node(ox + ca * x - sa * y, oy + sa * x + ca * y);
    }
    switch (type) {
      case ElementType::Bar2: model.add_element(type, {0, 1}); break;
      case ElementType::Beam2: model.add_element(type, {0, 2}); break;
      case ElementType::Tri3: model.add_element(type, {0, 1, 2}); break;
      case ElementType::Quad4: model.add_element(type, {0, 1, 2, 3}); break;
    }
    expect_element_matches(model, 0, random_displacements(model, rng),
                           "trial " + std::to_string(trial));
  }
}

TEST(ElementBitIdentity, ZeroPoissonAndAxisAlignedRectangles) {
  // nu = 0 makes D's off-diagonal terms exact zeros, so BᵀD has zero
  // entries that take the skip in BᵀDB.  Axis-aligned rectangles make the
  // Jacobian's off-diagonal terms ±0.  Every third material has a modulus
  // of 1.7e308, which overflows D (and with nu = 0, BᵀD) on the same
  // rectangles.
  support::Rng rng(24);
  for (int trial = 0; trial < 600; ++trial) {
    StructureModel model;
    Material m;
    m.youngs_modulus = trial % 3 == 0 ? 1.7e308
                                      : std::pow(10.0, rng.uniform(-3.0, 13.0));
    m.poisson_ratio = trial % 2 == 0 ? 0.0 : rng.uniform(-0.9, 0.49);
    m.thickness = rng.uniform(1e-3, 1.0);
    model.add_material(m);
    const double w = std::pow(10.0, rng.uniform(-6.0, 6.0));
    const double h = w * rng.uniform(0.2, 5.0);
    const double ox = trial % 5 == 0 ? 0.0 : rng.uniform(-100.0, 100.0);
    const double oy = trial % 7 == 0 ? 0.0 : rng.uniform(-100.0, 100.0);
    model.add_node(ox, oy);
    model.add_node(ox + w, oy);
    model.add_node(ox + w, oy + h);
    model.add_node(ox, oy + h);
    model.add_element(ElementType::Quad4, {0, 1, 2, 3});
    model.add_element(ElementType::Tri3, {0, 1, 2});
    model.add_element(ElementType::Tri3, {2, 3, 0});
    const auto u = random_displacements(model, rng);
    for (std::size_t i = 0; i < model.elements.size(); ++i)
      expect_element_matches(model, i, u,
                             "trial " + std::to_string(trial) + " element " +
                                 std::to_string(i));
  }
}

TEST(ElementBitIdentity, EveryElementOfTheBenchmarkSheets) {
  support::Rng rng(48);
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{8, 4},
                              {16, 8},
                              {48, 12}}) {
    for (const ElementType type : {ElementType::Quad4, ElementType::Tri3}) {
      PlateMeshOptions mesh;
      mesh.nx = nx;
      mesh.ny = ny;
      mesh.width = static_cast<double>(nx) / 8.0;
      mesh.height = static_cast<double>(ny) / 8.0;
      mesh.element = type;
      mesh.material.youngs_modulus = 70e9;
      mesh.material.thickness = 0.005;
      const auto model = make_cantilever_plate(mesh, 1'000.0);
      const auto u = random_displacements(model, rng);
      for (std::size_t i = 0; i < model.elements.size(); ++i)
        expect_element_matches(model, i, u,
                               std::to_string(nx) + "x" + std::to_string(ny) +
                                   " element " + std::to_string(i));
    }
  }
  FrameOptions frame;
  frame.segments = 9;
  const auto beam = make_cantilever_beam(frame, 5.0);
  TrussOptions truss;
  truss.bays = 7;
  const auto bridge = make_truss_bridge(truss, 3.0);
  for (const auto* model : {&beam, &bridge}) {
    const auto u = random_displacements(*model, rng);
    for (std::size_t i = 0; i < model->elements.size(); ++i)
      expect_element_matches(*model, i, u, model->name + " element " +
                                               std::to_string(i));
  }
}

TEST(FemSolvers, AllSolversAgreeOnCantileverPlate) {
  PlateMeshOptions options;
  options.nx = 8;
  options.ny = 4;
  options.material = soft_material();
  StructureModel model = make_cantilever_plate(options, 5.0);

  const auto reference =
      solve_static(model, "tip-shear", {.kind = SolverKind::DenseCholesky});
  const std::size_t tip = plate_node(options, options.nx, options.ny / 2);
  const double ref_tip = reference.displacements.at(tip, 1);
  EXPECT_LT(ref_tip, 0.0);  // deflects downward

  for (const SolverKind kind :
       {SolverKind::SkylineDirect, SolverKind::ConjugateGradient,
        SolverKind::PreconditionedCg, SolverKind::GaussSeidel,
        SolverKind::Sor}) {
    SolverOptions o;
    o.kind = kind;
    o.tolerance = 1e-12;
    o.max_iterations = 200'000;
    const auto solution = solve_static(model, "tip-shear", o);
    EXPECT_NEAR(solution.displacements.at(tip, 1), ref_tip,
                std::abs(ref_tip) * 1e-5)
        << solver_kind_name(kind);
  }
}

TEST(FemSolvers, TrussBridgeDeflectsDownAndBalances) {
  TrussOptions options;
  options.bays = 6;
  options.material = soft_material();
  StructureModel model = make_truss_bridge(options, 2.0);
  const auto result = analyze(model, "deck");
  ASSERT_TRUE(result.solution.stats.converged);
  // Midspan bottom node deflects downward.
  EXPECT_LT(result.solution.displacements.at(3, 1), 0.0);
  // Peak stress is finite and positive.
  EXPECT_GT(result.peak.von_mises, 0.0);
}

TEST(FemSubstructure, MatchesDirectSolve) {
  PlateMeshOptions options;
  options.nx = 12;
  options.ny = 4;
  options.material = soft_material();
  StructureModel model = make_cantilever_plate(options, 3.0);

  const auto direct =
      solve_static(model, "tip-shear", {.kind = SolverKind::DenseCholesky});
  const auto partition = partition_by_x(model, 4);
  SubstructureStats stats;
  const auto sub = solve_substructured(model, "tip-shear", partition, &stats);

  EXPECT_EQ(stats.substructures, 4u);
  EXPECT_GT(stats.interface_dofs, 0u);
  EXPECT_LT(stats.residual, 1e-8);
  for (std::size_t i = 0; i < direct.displacements.values.size(); ++i) {
    EXPECT_NEAR(sub.displacements.values[i], direct.displacements.values[i],
                1e-8 + std::abs(direct.displacements.values[i]) * 1e-6);
  }
}

TEST(FemAssembly, ConstraintEliminationAndPrescribedValues) {
  // Two-bar chain with a prescribed end displacement.
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(1, 0);
  model.add_node(2, 0);
  model.add_element(ElementType::Bar2, {0, 1}, mat);
  model.add_element(ElementType::Bar2, {1, 2}, mat);
  model.add_constraint(0, 0, 0.0);
  model.add_constraint(0, 1);
  model.add_constraint(1, 1);
  model.add_constraint(2, 1);
  model.add_constraint(2, 0, 0.1);  // pull the right end out
  model.load_set("none");

  const auto solution =
      solve_static(model, "none", {.kind = SolverKind::DenseCholesky});
  // Middle node sits halfway by symmetry of the two identical bars.
  EXPECT_NEAR(solution.displacements.at(1, 0), 0.05, 1e-12);
  EXPECT_NEAR(solution.displacements.at(2, 0), 0.1, 1e-12);
}

TEST(FemElements, PlateMeshRefinementConverges) {
  // Tip deflection of the cantilever sheet must converge under mesh
  // refinement, and Tri3/Quad4 discretizations must approach the same
  // answer (Quad4 from above stiffness-wise, CST stiffer still).
  auto tip_deflection = [](std::size_t nx, std::size_t ny,
                           ElementType element) {
    PlateMeshOptions options;
    options.nx = nx;
    options.ny = ny;
    options.width = 2.0;
    options.height = 0.5;
    options.element = element;
    options.material = soft_material();
    const auto model = make_cantilever_plate(options, 1.0);
    const auto solution =
        solve_static(model, "tip-shear", {.kind = SolverKind::SkylineDirect});
    return solution.displacements.at(plate_node(options, nx, ny / 2), 1);
  };

  const double q_coarse = tip_deflection(8, 2, ElementType::Quad4);
  const double q_mid = tip_deflection(16, 4, ElementType::Quad4);
  const double q_fine = tip_deflection(32, 8, ElementType::Quad4);
  const double t_fine = tip_deflection(32, 8, ElementType::Tri3);

  // Displacement grows toward the true value as constraints are released.
  EXPECT_LT(q_fine, 0.0);
  EXPECT_GT(std::abs(q_mid), std::abs(q_coarse));
  EXPECT_GT(std::abs(q_fine), std::abs(q_mid));
  // Successive refinements change the answer less and less.
  EXPECT_LT(std::abs(q_fine - q_mid), std::abs(q_mid - q_coarse));
  // CST is stiffer but within ~15% of Quad4 at this resolution.
  EXPECT_LT(std::abs(t_fine), std::abs(q_fine));
  EXPECT_NEAR(t_fine, q_fine, std::abs(q_fine) * 0.15);
}

TEST(FemModel, ValidationCatchesErrors) {
  StructureModel empty;
  EXPECT_THROW(empty.validate(), support::Error);

  StructureModel model;
  model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(0, 0);  // same location
  model.add_element(ElementType::Bar2, {0, 1});
  EXPECT_THROW(model.validate(), support::Error);  // zero length
}


/// The pattern as every element's free-dof (row, col) pairs make it,
/// through SparsityPattern::from_pairs.
la::SparsityPattern pattern_from_pairs(const StructureModel& model,
                                       const DofMap& dofs) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& element : model.elements) {
    const std::size_t edof = element_dofs_per_node(element.type);
    std::vector<std::size_t> free;
    for (std::size_t i = 0; i < element.node_count(); ++i)
      for (std::size_t d = 0; d < edof; ++d)
        if (const auto r = dofs.full_to_reduced[dofs.full_index(
                element.nodes[i], d)];
            r >= 0)
          free.push_back(static_cast<std::size_t>(r));
    for (const std::size_t r : free)
      for (const std::size_t c : free) pairs.emplace_back(r, c);
  }
  return la::SparsityPattern::from_pairs(dofs.free_dofs, dofs.free_dofs,
                                         std::move(pairs));
}

/// Models no mesh generator builds.  "frame" mixes Bar2 and Beam2 in a
/// 3-dof model: nodes 4 and 5 meet first in a bar and later in a beam, so
/// their coupling width is the larger of two; it also has a free node no
/// element holds (empty rows), a duplicated bar, elements listed with
/// descending node numbers and a prescribed rotation.  "plane" mixes
/// Quad4, Tri3 and Bar2 in a 2-dof model, with an isolated node and a
/// prescribed displacement.
std::vector<std::pair<std::string, StructureModel>> mixed_models() {
  StructureModel frame;
  frame.add_material(soft_material());
  for (int i = 0; i < 6; ++i) frame.add_node(i, 0.1 * i * i);
  frame.add_node(2.5, 3.0);  // node 6: free, in no element
  frame.add_element(ElementType::Beam2, {0, 1});
  frame.add_element(ElementType::Beam2, {2, 1});
  frame.add_element(ElementType::Bar2, {2, 3});
  frame.add_element(ElementType::Bar2, {2, 3});
  frame.add_element(ElementType::Beam2, {4, 3});
  frame.add_element(ElementType::Bar2, {5, 4});
  frame.add_element(ElementType::Bar2, {5, 0});
  frame.add_element(ElementType::Beam2, {4, 5});
  frame.fix_node(0);
  frame.add_constraint(5, 1);
  frame.add_constraint(3, 2, 0.002);
  frame.add_load("tip", 5, 0, 1.0);

  StructureModel plane;
  plane.add_material(soft_material());
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 3; ++i) plane.add_node(i, j);  // nodes 0..5
  plane.add_node(3.0, 0.5);  // node 6
  plane.add_node(5.0, 5.0);  // node 7: free, in no element
  plane.add_element(ElementType::Quad4, {0, 1, 4, 3});
  plane.add_element(ElementType::Tri3, {1, 2, 5});
  plane.add_element(ElementType::Tri3, {5, 4, 1});
  plane.add_element(ElementType::Tri3, {6, 5, 2});
  plane.add_element(ElementType::Bar2, {5, 0});
  plane.add_element(ElementType::Bar2, {3, 2});
  plane.add_element(ElementType::Bar2, {2, 6});
  plane.fix_node(0);
  plane.fix_node(3);
  plane.add_constraint(6, 1, -0.01);
  plane.add_load("pull", 6, 0, 1.0);
  return {{"frame", std::move(frame)}, {"plane", std::move(plane)}};
}

TEST(FemAssembly, SparsityPatternMatchesSortedPairs) {
  PlateMeshOptions quad;
  quad.nx = 9;
  quad.ny = 5;
  quad.material = soft_material();
  PlateMeshOptions tri = quad;
  tri.element = ElementType::Tri3;
  TrussOptions truss;
  truss.bays = 7;
  truss.material = soft_material();
  FrameOptions frame;
  frame.segments = 6;
  frame.material = soft_material();
  StructureModel prescribed = make_cantilever_plate(quad, 1.0);
  prescribed.add_constraint(plate_node(quad, 9, 5), 1, 0.01);

  std::vector<std::pair<std::string, StructureModel>> models = {
      {"quad4", make_cantilever_plate(quad, 1.0)},
      {"tri3", make_cantilever_plate(tri, 1.0)},
      {"bar2", make_truss_bridge(truss, 1.0)},
      {"beam2", make_cantilever_beam(frame, 1.0)},
      {"quad4 prescribed", prescribed},
  };
  for (auto& named : mixed_models()) models.push_back(std::move(named));
  for (const auto& [name, model] : models) {
    const DofMap dofs = build_dof_map(model);
    const auto got = build_sparsity_pattern(model, dofs);
    const auto want = pattern_from_pairs(model, dofs);
    EXPECT_EQ(got->rows(), want.rows()) << name;
    EXPECT_EQ(got->cols(), want.cols()) << name;
    EXPECT_TRUE(std::ranges::equal(got->row_ptr(), want.row_ptr())) << name;
    EXPECT_TRUE(std::ranges::equal(got->col_idx(), want.col_idx())) << name;
    EXPECT_EQ(got->storage_bytes(), want.storage_bytes()) << name;
  }
  // The frame's node 6 is free but in no element: its rows are empty.
  const StructureModel& frame_model = models[models.size() - 2].second;
  const DofMap frame_dofs = build_dof_map(frame_model);
  const auto frame_pattern = build_sparsity_pattern(frame_model, frame_dofs);
  for (std::size_t d = 0; d < 3; ++d) {
    const auto r = static_cast<std::size_t>(
        frame_dofs.full_to_reduced[frame_dofs.full_index(6, d)]);
    EXPECT_EQ(frame_pattern->row_ptr()[r], frame_pattern->row_ptr()[r + 1]);
  }
}


/// fem::assemble as it was built before the one-pass fill: a symbolic plan
/// of value offsets and rhs corrections per element, then a numeric pass
/// that scatters each element matrix through it.  It shares no assembly
/// stage with the library: the pattern comes from pattern_from_pairs, the
/// element matrices from the DenseMatrix formulation in `before`.
namespace plan_oracle {

struct MatrixScatter {
  std::size_t local;
  std::size_t offset;
};
struct RhsScatter {
  std::size_t local;
  std::size_t row;
  double coeff;
};

AssembledSystem assemble(const StructureModel& model) {
  model.validate();
  const DofMap map = build_dof_map(model);
  const auto pattern = std::make_shared<const la::SparsityPattern>(
      pattern_from_pairs(model, map));

  std::vector<std::size_t> matrix_begin;
  std::vector<MatrixScatter> matrix;
  std::vector<std::size_t> rhs_begin;
  std::vector<RhsScatter> rhs;
  for (const auto& element : model.elements) {
    matrix_begin.push_back(matrix.size());
    rhs_begin.push_back(rhs.size());
    const std::size_t edof = element_dofs_per_node(element.type);
    std::vector<std::size_t> global(element.node_count() * edof);
    for (std::size_t i = 0; i < element.node_count(); ++i)
      for (std::size_t d = 0; d < edof; ++d)
        global[i * edof + d] = map.full_index(element.nodes[i], d);
    const std::size_t n = global.size();
    for (std::size_t r = 0; r < n; ++r) {
      const std::ptrdiff_t rr = map.full_to_reduced[global[r]];
      if (rr < 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        const std::ptrdiff_t rc = map.full_to_reduced[global[c]];
        if (rc >= 0) {
          matrix.push_back({r * n + c,
                            pattern->find(static_cast<std::size_t>(rr),
                                          static_cast<std::size_t>(rc))});
        } else if (const double uc = map.prescribed[global[c]]; uc != 0.0) {
          rhs.push_back({r * n + c, static_cast<std::size_t>(rr), uc});
        }
      }
    }
  }
  matrix_begin.push_back(matrix.size());
  rhs_begin.push_back(rhs.size());

  AssembledSystem system;
  system.dofs = map;
  system.rhs_correction.assign(map.free_dofs, 0.0);
  std::vector<double> values(pattern->nonzeros(), 0.0);
  for (std::size_t e = 0; e < model.elements.size(); ++e) {
    const la::DenseMatrix k =
        before::element_stiffness(model, model.elements[e]);
    const std::span<const double> kd = k.data();
    for (std::size_t s = matrix_begin[e]; s < matrix_begin[e + 1]; ++s)
      values[matrix[s].offset] += kd[matrix[s].local];
    for (std::size_t s = rhs_begin[e]; s < rhs_begin[e + 1]; ++s)
      system.rhs_correction[rhs[s].row] += kd[rhs[s].local] * rhs[s].coeff;
  }
  system.stiffness = la::CsrMatrix(pattern, std::move(values));
  return system;
}

}  // namespace plan_oracle

TEST(FemAssembly, OnePassMatchesTheTwoPassPlan) {
  const auto sheet = [](std::size_t nx, std::size_t ny, ElementType type) {
    PlateMeshOptions mesh;
    mesh.nx = nx;
    mesh.ny = ny;
    mesh.width = static_cast<double>(nx) / 8.0;
    mesh.height = static_cast<double>(ny) / 8.0;
    mesh.element = type;
    mesh.material.youngs_modulus = 70e9;
    mesh.material.thickness = 0.005;
    return make_cantilever_plate(mesh, 1'000.0);
  };
  TrussOptions truss;
  truss.bays = 7;
  FrameOptions frame;
  frame.segments = 9;
  PlateMeshOptions plate;
  plate.nx = 12;
  plate.ny = 6;
  plate.material = soft_material();
  StructureModel prescribed = make_cantilever_plate(plate, 5.0);
  prescribed.add_constraint(plate_node(plate, 12, 0), 1, 0.01);
  prescribed.add_constraint(plate_node(plate, 12, 6), 0, -0.005);
  prescribed.add_constraint(plate_node(plate, 6, 6), 1, 0.003);

  std::vector<std::pair<std::string, StructureModel>> models = {
      {"quad4 8x4", sheet(8, 4, ElementType::Quad4)},
      {"quad4 12x6", sheet(12, 6, ElementType::Quad4)},
      {"quad4 16x8", sheet(16, 8, ElementType::Quad4)},
      {"quad4 48x12", sheet(48, 12, ElementType::Quad4)},
      {"tri3 48x12", sheet(48, 12, ElementType::Tri3)},
      {"truss", make_truss_bridge(truss, 3.0)},
      {"beam", make_cantilever_beam(frame, 5.0)},
      {"prescribed plate", prescribed},
  };
  for (auto& named : mixed_models()) models.push_back(std::move(named));
  for (const auto& [name, model] : models) {
    const AssembledSystem want = plan_oracle::assemble(model);
    const AssembledSystem got = assemble(model);
    EXPECT_TRUE(std::ranges::equal(got.stiffness.row_ptr(),
                                   want.stiffness.row_ptr()))
        << name;
    EXPECT_TRUE(std::ranges::equal(got.stiffness.col_idx(),
                                   want.stiffness.col_idx()))
        << name;
    EXPECT_TRUE(same_bits(got.stiffness.values(), want.stiffness.values()))
        << name;
    EXPECT_TRUE(same_bits(got.rhs_correction, want.rhs_correction)) << name;
    EXPECT_EQ(got.dofs.full_to_reduced, want.dofs.full_to_reduced) << name;
  }
  // The prescribed values reach the right-hand side.
  EXPECT_TRUE(std::ranges::any_of(assemble(prescribed).rhs_correction,
                                  [](double v) { return v != 0.0; }));
}

}  // namespace
}  // namespace fem2::fem
