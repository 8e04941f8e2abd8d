//! Table schemas, key constraints and the introspection RETRO relies on.
//!
//! §3.2 of the paper extracts three kinds of relationships from the schema:
//! (a) row-wise pairs of text columns in one table, (b) one-to-many PK/FK
//! relationships, and (c) many-to-many relationships realized by *link
//! tables* (tables of foreign-key pairs). The helpers here make those three
//! shapes recognizable without any knowledge of the data.

use crate::value::DataType;

/// A column definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within a table).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl ColumnDef {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Self { name: name.into(), ty }
    }
}

/// A foreign-key constraint: `table.column` references `ref_table.ref_column`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForeignKey {
    /// Constrained column in the owning table.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column (must be the referenced table's primary key).
    pub ref_column: String,
}

/// The schema of one table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (unique within a database).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Index into `columns` of the primary key, if declared.
    pub primary_key: Option<usize>,
    /// Foreign-key constraints.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// Start building a schema for `name`.
    pub fn builder(name: impl Into<String>) -> TableSchemaBuilder {
        TableSchemaBuilder {
            schema: TableSchema {
                name: name.into(),
                columns: Vec::new(),
                primary_key: None,
                foreign_keys: Vec::new(),
            },
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Error unless the declared primary key indexes one of the columns.
    pub(crate) fn check_primary_key(&self) -> crate::Result<()> {
        match self.primary_key {
            Some(pk) if pk >= self.columns.len() => Err(crate::StoreError::UnknownColumn {
                table: self.name.clone(),
                column: format!("index {pk}"),
            }),
            _ => Ok(()),
        }
    }

    /// Indices of all text columns.
    pub fn text_columns(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ty == DataType::Text)
            .map(|(i, _)| i)
            .collect()
    }

    /// The foreign key constraining `column`, if any.
    pub fn foreign_key_on(&self, column: &str) -> Option<&ForeignKey> {
        self.foreign_keys.iter().find(|fk| fk.column == column)
    }

    /// True when this table is a pure n:m *link table*: every column is
    /// either a foreign key or the primary key, it has no text columns, and
    /// it carries at least two foreign keys.
    ///
    /// The paper's Table 1 counts such tables separately ("tables which only
    /// express n:m relations"); relationship extraction collapses them into
    /// a single many-to-many relation group.
    pub fn is_link_table(&self) -> bool {
        if self.foreign_keys.len() < 2 {
            return false;
        }
        self.columns.iter().enumerate().all(|(i, c)| {
            Some(i) == self.primary_key
                || self.foreign_key_on(&c.name).is_some() && c.ty != DataType::Text
        })
    }
}

/// Fluent builder for [`TableSchema`].
pub struct TableSchemaBuilder {
    schema: TableSchema,
}

impl TableSchemaBuilder {
    /// Add a column.
    pub fn column(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.schema.columns.push(ColumnDef::new(name, ty));
        self
    }

    /// Add an `INTEGER PRIMARY KEY` column named `name`.
    pub fn pk(mut self, name: impl Into<String>) -> Self {
        self.schema.columns.push(ColumnDef::new(name, DataType::Int));
        self.schema.primary_key = Some(self.schema.columns.len() - 1);
        self
    }

    /// Declare the most recently added column as the primary key.
    pub fn primary_key_last(mut self) -> Self {
        assert!(!self.schema.columns.is_empty(), "primary_key_last on empty schema");
        self.schema.primary_key = Some(self.schema.columns.len() - 1);
        self
    }

    /// Add an `INTEGER` column that references `ref_table.ref_column`.
    pub fn fk(
        mut self,
        name: impl Into<String>,
        ref_table: impl Into<String>,
        ref_column: impl Into<String>,
    ) -> Self {
        let name = name.into();
        self.schema.columns.push(ColumnDef::new(name.clone(), DataType::Int));
        self.schema.foreign_keys.push(ForeignKey {
            column: name,
            ref_table: ref_table.into(),
            ref_column: ref_column.into(),
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> TableSchema {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movies() -> TableSchema {
        TableSchema::builder("movies")
            .pk("id")
            .column("title", DataType::Text)
            .column("original_language", DataType::Text)
            .column("budget", DataType::Float)
            .fk("director_id", "persons", "id")
            .build()
    }

    #[test]
    fn builder_assembles_schema() {
        let s = movies();
        assert_eq!(s.name, "movies");
        assert_eq!(s.columns.len(), 5);
        assert_eq!(s.primary_key, Some(0));
        assert_eq!(s.foreign_keys.len(), 1);
    }

    #[test]
    fn column_lookup() {
        let s = movies();
        assert_eq!(s.column_index("budget"), Some(3));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.column("title").map(|c| c.ty), Some(DataType::Text));
    }

    #[test]
    fn text_columns_found() {
        assert_eq!(movies().text_columns(), vec![1, 2]);
    }

    #[test]
    fn fk_lookup() {
        let s = movies();
        assert_eq!(s.foreign_key_on("director_id").map(|f| f.ref_table.as_str()), Some("persons"));
        assert!(s.foreign_key_on("title").is_none());
    }

    #[test]
    fn link_table_detection() {
        let link = TableSchema::builder("movie_genre")
            .fk("movie_id", "movies", "id")
            .fk("genre_id", "genres", "id")
            .build();
        assert!(link.is_link_table());
        assert!(!movies().is_link_table());

        // A table with two FKs plus a text payload is NOT a pure link table.
        let annotated = TableSchema::builder("cast")
            .fk("movie_id", "movies", "id")
            .fk("person_id", "persons", "id")
            .column("role", DataType::Text)
            .build();
        assert!(!annotated.is_link_table());
    }

    #[test]
    fn single_fk_is_not_link_table() {
        let t = TableSchema::builder("reviews").pk("id").fk("movie_id", "movies", "id").build();
        assert!(!t.is_link_table());
    }
}
