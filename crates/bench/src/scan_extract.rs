//! The pre-index extraction baseline, preserved for comparison.
//!
//! Before the store grew secondary indexes and the catalog grew
//! per-category interning maps, extraction resolved every text cell
//! through a `(category, String)`-keyed map — one key allocation per
//! probe — and relation extraction re-hashed the referenced row's text
//! once per *referencing* row. `paper_scale_profile` times this routine
//! against [`retro_core::TextValueCatalog::extract`] +
//! [`retro_core::relations::extract_relations`] and asserts the two
//! produce bit-identical catalogs and groups, so the reported speedup is
//! pure access-path cost (same rows, same ids, same edges).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use retro_core::relations::{RelationGroup, RelationKind};
use retro_store::Database;

/// What the scan baseline extracts: the same ids and edges the indexed
/// path produces, in plain vectors for comparison.
pub struct ScanExtraction {
    /// `(table, column)` per category, in id order.
    pub categories: Vec<(String, String)>,
    /// `(category id, text)` per value, in id order.
    pub values: Vec<(u32, String)>,
    /// All relation groups, in extraction order.
    pub groups: Vec<RelationGroup>,
}

/// Full-database extraction the way the seed engine did it: tuple-keyed
/// maps, an owned-`String` allocation per probe, and per-referencing-row
/// target lookups.
pub fn extract_scan(db: &Database) -> ScanExtraction {
    // ── Catalog: (category, String)-keyed interning ───────────────────
    let mut categories: Vec<(String, String)> = Vec::new();
    let mut values: Vec<(u32, String)> = Vec::new();
    let mut index: HashMap<(u32, String), u32> = HashMap::new();
    for table in db.tables() {
        let schema = table.schema();
        for col_idx in schema.text_columns() {
            let cat = categories.len() as u32;
            categories.push((schema.name.clone(), schema.columns[col_idx].name.clone()));
            for value in table.column_values(col_idx) {
                if let Some(text) = value.as_text() {
                    if let Entry::Vacant(slot) = index.entry((cat, text.to_owned())) {
                        slot.insert(values.len() as u32);
                        values.push((cat, text.to_owned()));
                    }
                }
            }
        }
    }
    let category_id = |table: &str, column: &str| -> Option<u32> {
        categories.iter().position(|(t, c)| t == table && c == column).map(|i| i as u32)
    };
    let lookup = |index: &HashMap<(u32, String), u32>, cat: u32, text: &str| -> Option<u32> {
        index.get(&(cat, text.to_owned())).copied()
    };

    // ── Relations: same traversal as `extract_relations`, scan probes ──
    let mut groups: Vec<RelationGroup> = Vec::new();
    let push = |groups: &mut Vec<RelationGroup>, g: RelationGroup| {
        if !g.is_empty() {
            groups.push(g);
        }
    };
    for table in db.tables() {
        let schema = table.schema();
        let text_cols = schema.text_columns();

        for (ai, &a) in text_cols.iter().enumerate() {
            for &b in &text_cols[ai + 1..] {
                let (Some(cat_a), Some(cat_b)) = (
                    category_id(&schema.name, &schema.columns[a].name),
                    category_id(&schema.name, &schema.columns[b].name),
                ) else {
                    continue;
                };
                let mut edges = Vec::new();
                for row in table.rows() {
                    if let (Some(ta), Some(tb)) = (row[a].as_text(), row[b].as_text()) {
                        if let (Some(i), Some(j)) =
                            (lookup(&index, cat_a, ta), lookup(&index, cat_b, tb))
                        {
                            edges.push((i, j));
                        }
                    }
                }
                push(
                    &mut groups,
                    RelationGroup::new(
                        format!(
                            "{}.{}~{}.{}",
                            schema.name,
                            schema.columns[a].name,
                            schema.name,
                            schema.columns[b].name
                        ),
                        cat_a,
                        cat_b,
                        RelationKind::RowWise,
                        edges,
                    ),
                );
            }
        }

        if schema.is_link_table() {
            let fks = &schema.foreign_keys;
            for (fi, fk_a) in fks.iter().enumerate() {
                for fk_b in &fks[fi + 1..] {
                    let (Ok(table_a), Ok(table_b)) =
                        (db.table(&fk_a.ref_table), db.table(&fk_b.ref_table))
                    else {
                        continue;
                    };
                    let col_a = schema.column_index(&fk_a.column).expect("fk validated");
                    let col_b = schema.column_index(&fk_b.column).expect("fk validated");
                    let (Some(ta), Some(tb)) = (
                        table_a.schema().text_columns().first().copied(),
                        table_b.schema().text_columns().first().copied(),
                    ) else {
                        continue;
                    };
                    let (Some(cat_a), Some(cat_b)) = (
                        category_id(&fk_a.ref_table, &table_a.schema().columns[ta].name),
                        category_id(&fk_b.ref_table, &table_b.schema().columns[tb].name),
                    ) else {
                        continue;
                    };
                    let mut edges = Vec::new();
                    for row in table.rows() {
                        let (Some(ka), Some(kb)) = (row[col_a].as_int(), row[col_b].as_int())
                        else {
                            continue;
                        };
                        let (Some(row_a), Some(row_b)) =
                            (table_a.row_by_pk(ka), table_b.row_by_pk(kb))
                        else {
                            continue;
                        };
                        if let (Some(sa), Some(sb)) = (row_a[ta].as_text(), row_b[tb].as_text()) {
                            if let (Some(i), Some(j)) =
                                (lookup(&index, cat_a, sa), lookup(&index, cat_b, sb))
                            {
                                edges.push((i, j));
                            }
                        }
                    }
                    push(
                        &mut groups,
                        RelationGroup::new(
                            format!(
                                "{}.{}~{}.{} (via {})",
                                fk_a.ref_table,
                                table_a.schema().columns[ta].name,
                                fk_b.ref_table,
                                table_b.schema().columns[tb].name,
                                schema.name
                            ),
                            cat_a,
                            cat_b,
                            RelationKind::ManyToMany,
                            edges,
                        ),
                    );
                }
            }
        } else {
            for fk in &schema.foreign_keys {
                let Ok(ref_table) = db.table(&fk.ref_table) else { continue };
                let ref_schema = ref_table.schema();
                let fk_col = schema.column_index(&fk.column).expect("fk validated");
                if let (Some(&a), Some(b)) =
                    (text_cols.first(), ref_schema.text_columns().first().copied())
                {
                    let (Some(cat_a), Some(cat_b)) = (
                        category_id(&schema.name, &schema.columns[a].name),
                        category_id(&ref_schema.name, &ref_schema.columns[b].name),
                    ) else {
                        continue;
                    };
                    let mut edges = Vec::new();
                    for row in table.rows() {
                        let Some(key) = row[fk_col].as_int() else { continue };
                        let Some(target_row) = ref_table.row_by_pk(key) else { continue };
                        if let (Some(ta), Some(tb)) = (row[a].as_text(), target_row[b].as_text()) {
                            if let (Some(i), Some(j)) =
                                (lookup(&index, cat_a, ta), lookup(&index, cat_b, tb))
                            {
                                edges.push((i, j));
                            }
                        }
                    }
                    push(
                        &mut groups,
                        RelationGroup::new(
                            format!(
                                "{}.{}~{}.{}",
                                schema.name,
                                schema.columns[a].name,
                                ref_schema.name,
                                ref_schema.columns[b].name
                            ),
                            cat_a,
                            cat_b,
                            RelationKind::ForeignKey,
                            edges,
                        ),
                    );
                }
            }
        }
    }

    ScanExtraction { categories, values, groups }
}

/// Assert the indexed extraction reproduced the scan baseline exactly:
/// same categories, same value ids, same groups edge-for-edge.
pub fn assert_matches(
    scan: &ScanExtraction,
    catalog: &retro_core::TextValueCatalog,
    groups: &[RelationGroup],
) {
    assert_eq!(scan.categories.len(), catalog.category_count(), "category count diverged");
    for (id, cat) in catalog.categories().iter().enumerate() {
        assert_eq!(
            scan.categories[id],
            (cat.table.clone(), cat.column.clone()),
            "category {id} diverged"
        );
    }
    assert_eq!(scan.values.len(), catalog.len(), "value count diverged");
    for (id, cat, text) in catalog.iter() {
        assert_eq!(scan.values[id].0, cat, "value {id} category diverged");
        assert_eq!(scan.values[id].1, text, "value {id} text diverged");
    }
    assert_eq!(scan.groups.len(), groups.len(), "group count diverged");
    for (s, g) in scan.groups.iter().zip(groups) {
        assert_eq!(s.name, g.name, "group name diverged");
        assert_eq!(s.kind, g.kind, "group {} kind diverged", g.name);
        assert_eq!(s.source_category, g.source_category, "group {} source diverged", g.name);
        assert_eq!(s.target_category, g.target_category, "group {} target diverged", g.name);
        assert_eq!(s.edges, g.edges, "group {} edges diverged", g.name);
    }
}
