//! §3.4 graph generation: text-value nodes + category blank nodes, edges
//! from relation groups and category membership. This is the input to
//! DeepWalk.

use retro_graph::{Graph, NodeKind};

use crate::catalog::TextValueCatalog;
use crate::relations::RelationGroup;

/// The generated graph plus the id mapping back to the catalog.
#[derive(Clone, Debug)]
pub struct GeneratedGraph {
    /// The property graph: nodes `0..n` are text values (same ids as the
    /// catalog), nodes `n..n+m` are category blank nodes.
    pub graph: Graph,
    /// Offset of the first category node (= number of text values). A
    /// text value's node id is its value id.
    pub category_offset: usize,
}

impl GeneratedGraph {
    /// The graph node id of a category blank node.
    pub fn category_node(&self, category_id: u32) -> usize {
        self.category_offset + category_id as usize
    }
}

/// Build the §3.4 property graph.
///
/// `V = V_T ∪ V_C`, `E = ∪_r Er ∪ E_C`: every text value connects to its
/// category's blank node, and every relation edge connects two text values.
pub fn generate_graph(catalog: &TextValueCatalog, groups: &[RelationGroup]) -> GeneratedGraph {
    let n = catalog.len();
    let mut graph = Graph::new();
    for i in 0..n {
        graph.add_node(NodeKind::TextValue { label: catalog.text(i).to_owned() });
    }
    for category in catalog.categories() {
        graph.add_node(NodeKind::Category { label: category.label() });
    }
    let category_label = graph.intern_label("category");
    for i in 0..n {
        let cat = catalog.category_of(i) as usize;
        graph.add_edge(i, n + cat, category_label);
    }
    for group in groups {
        let label = graph.intern_label(&group.name);
        for &(i, j) in &group.edges {
            graph.add_edge(i as usize, j as usize, label);
        }
    }
    GeneratedGraph { graph, category_offset: n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::RelationKind;

    fn setup() -> (TextValueCatalog, Vec<RelationGroup>) {
        let mut catalog = TextValueCatalog::default();
        let ca = catalog.add_category("movies", "title");
        let cb = catalog.add_category("persons", "name");
        let a = catalog.intern(ca, "alien");
        let b = catalog.intern(cb, "ridley scott");
        catalog.intern(cb, "luc besson");
        let groups = vec![RelationGroup::new(
            "movies.title~persons.name".into(),
            ca,
            cb,
            RelationKind::ForeignKey,
            vec![(a, b)],
        )];
        (catalog, groups)
    }

    #[test]
    fn node_counts_are_values_plus_categories() {
        let (catalog, groups) = setup();
        let g = generate_graph(&catalog, &groups);
        assert_eq!(g.graph.node_count(), 3 + 2);
        assert_eq!(g.category_offset, 3);
    }

    #[test]
    fn category_edges_link_values_to_blank_nodes() {
        let (catalog, groups) = setup();
        let g = generate_graph(&catalog, &groups);
        // Every text value has exactly one category edge; alien also has the
        // relation edge.
        let title_cat = g.category_node(0);
        assert!(g.graph.neighbors(0).contains(&(title_cat as u32)));
        assert_eq!(g.graph.degree(title_cat), 1); // only alien in movies.title
        assert_eq!(g.graph.degree(g.category_node(1)), 2); // two persons
    }

    #[test]
    fn relation_edges_carry_group_labels() {
        let (catalog, groups) = setup();
        let g = generate_graph(&catalog, &groups);
        let labels: Vec<&str> = g.graph.neighbors_labelled(0).map(|(_, l)| l).collect();
        assert!(labels.contains(&"category"));
        assert!(labels.contains(&"movies.title~persons.name"));
    }

    #[test]
    fn edge_count_is_categories_plus_relations() {
        let (catalog, groups) = setup();
        let g = generate_graph(&catalog, &groups);
        assert_eq!(g.graph.edge_count(), 3 + 1);
        assert!(g.graph.is_symmetric());
    }
}
