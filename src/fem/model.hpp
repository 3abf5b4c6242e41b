// Structural model data objects — the application user's VM data layer:
// "structure/substructure model, grid description, node/element
// description, load set, displacements of nodes, stresses on elements".
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace fem2::fem {

struct Node {
  double x = 0.0;
  double y = 0.0;
};

enum class ElementType : std::uint8_t {
  Bar2,   ///< 2-node axial truss bar (2 dof/node)
  Beam2,  ///< 2-node Euler-Bernoulli frame element (3 dof/node)
  Tri3,   ///< 3-node constant-strain triangle, plane stress (2 dof/node)
  Quad4,  ///< 4-node bilinear quadrilateral, plane stress (2 dof/node)
};

std::string_view element_type_name(ElementType t);
std::size_t element_node_count(ElementType t);
/// Degrees of freedom per node this element type requires.
std::size_t element_dofs_per_node(ElementType t);

struct Element {
  ElementType type = ElementType::Bar2;
  std::array<std::size_t, 4> nodes{};  ///< first element_node_count() used
  std::size_t material = 0;

  std::size_t node_count() const { return element_node_count(type); }
  /// Local dofs, node-major: node 0's dofs, then node 1's, ...
  std::size_t dof_count() const {
    return node_count() * element_dofs_per_node(type);
  }
  /// Model-wide dof of local dof `local` when the model numbers
  /// `dofs_per_node` dofs per node.
  std::size_t model_dof(std::size_t local, std::size_t dofs_per_node) const {
    const std::size_t edof = element_dofs_per_node(type);
    return nodes[local / edof] * dofs_per_node + local % edof;
  }
};

struct Material {
  std::string name = "steel";
  double youngs_modulus = 200e9;   ///< E  [Pa]
  double poisson_ratio = 0.3;      ///< ν
  double area = 1e-3;              ///< A  [m²]   (bars, beams)
  double moment_of_inertia = 1e-6; ///< I  [m⁴]   (beams)
  double thickness = 1e-2;         ///< t  [m]    (plane-stress elements)
  double density = 7850.0;         ///< ρ  [kg/m³] (dynamics)
};

/// Single-point constraint: prescribe one nodal dof (usually to zero).
struct Constraint {
  std::size_t node = 0;
  std::size_t dof = 0;  ///< 0 = x, 1 = y, 2 = rotation
  double value = 0.0;
};

struct PointLoad {
  std::size_t node = 0;
  std::size_t dof = 0;
  double value = 0.0;
};

/// "Load set" — a named collection of loads applied together.
struct LoadSet {
  std::string name = "default";
  std::vector<PointLoad> loads;
};

class StructureModel {
 public:
  std::string name = "structure";

  std::vector<Node> nodes;
  std::vector<Element> elements;
  std::vector<Material> materials;
  std::vector<Constraint> constraints;
  std::map<std::string, LoadSet> load_sets;

  std::size_t add_node(double x, double y);
  std::size_t add_material(Material material);
  std::size_t add_element(ElementType type,
                          std::initializer_list<std::size_t> nodes,
                          std::size_t material = 0);
  void fix_node(std::size_t node);  ///< constrain every dof of the node
  void add_constraint(std::size_t node, std::size_t dof, double value = 0.0);
  LoadSet& load_set(const std::string& name);  ///< creates if absent
  void add_load(const std::string& set, std::size_t node, std::size_t dof,
                double value);

  /// Degrees of freedom per node for the whole model (3 when any beam
  /// element is present, else 2).
  std::size_t dofs_per_node() const;
  std::size_t total_dofs() const { return nodes.size() * dofs_per_node(); }

  /// Structural validation: indices in range, materials present, elements
  /// non-degenerate.  Throws support::Error with a description on failure.
  void validate() const;

  /// Approximate storage footprint of the model description (bytes).
  std::size_t storage_bytes() const;
};

/// Displacement results: full dof vector plus lookup helpers.
struct Displacements {
  std::size_t dofs_per_node = 2;
  std::vector<double> values;  ///< length nodes*dofs_per_node

  double at(std::size_t node, std::size_t dof) const {
    FEM2_CHECK(node * dofs_per_node + dof < values.size());
    return values[node * dofs_per_node + dof];
  }
};

/// Per-element stress results ("stresses on elements").
struct ElementStress {
  std::size_t element = 0;
  /// Bars/beams: axial stress in sigma_xx; plane elements: full tensor.
  double sigma_xx = 0.0;
  double sigma_yy = 0.0;
  double tau_xy = 0.0;
  double von_mises = 0.0;
};

}  // namespace fem2::fem
