#include "fem/element.hpp"

#include <array>
#include <cmath>

namespace fem2::fem {

namespace {

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
  std::vector<double> out(e.dof_count());
  for (std::size_t local = 0; local < out.size(); ++local) {
    const std::size_t dof = e.model_dof(local, u.dofs_per_node);
    FEM2_CHECK(dof < u.values.size());
    out[local] = u.values[dof];
  }
  return out;
}

}  // namespace

double triangle_area(const Node& a, const Node& b, const Node& c) {
  return 0.5 * ((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y));
}

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

}  // namespace fem2::fem
