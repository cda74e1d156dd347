//! Shared experiment harness: table building for the `experiments`
//! binary. Tables hold no wall-clock numbers, so a run's output is a
//! pure function of its seeds (`tests/expected/experiments.txt`).

pub use dmp_simulator::report::{f2, f3, pct, render_table};

/// A growing experiment table printed at the end of a run.
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ExperimentTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        render_table(&self.title, &headers, &self.rows)
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Build a convenience table in one call.
pub fn table(title: &str, headers: &[&str], rows: Vec<Vec<String>>) -> String {
    render_table(title, headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_accumulates_rows() {
        let mut t = ExperimentTable::new("t", &["a", "b"]);
        assert!(t.is_empty());
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("== t =="));
    }
}
