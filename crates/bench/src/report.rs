//! The typed table every figure returns, rendered as text or as JSON.

use sge_wire::json::Json;

/// One table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Free text: names, labels, ranges.
    Text(String),
    /// An exact count.
    Count(u64),
    /// Seconds, shown with 4 decimals.
    Seconds(f64),
    /// A real number shown with 2 decimals: speedups, rates and means.
    Ratio(f64),
}

impl Cell {
    /// The cell as the text table shows it.
    fn render(&self) -> String {
        match self {
            Cell::Text(text) => text.clone(),
            Cell::Count(n) => n.to_string(),
            Cell::Seconds(x) => format!("{x:.4}"),
            Cell::Ratio(x) => format!("{x:.2}"),
        }
    }

    /// The cell as the record stores it, at full precision.
    fn to_json(&self) -> Json {
        match self {
            Cell::Text(text) => Json::str(text.as_str()),
            Cell::Count(n) => Json::U64(*n),
            Cell::Seconds(x) | Cell::Ratio(x) => Json::F64(*x),
        }
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Cell {
        Cell::Text(text.to_string())
    }
}

impl From<String> for Cell {
    fn from(text: String) -> Cell {
        Cell::Text(text)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Count(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Count(n as u64)
    }
}

/// A figure's output: a title, named columns, typed rows and figure-level
/// extras.  The text table and the record's JSON object both read it.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<&'static str>,
    rows: Vec<Vec<Cell>>,
    extras: Vec<(&'static str, Cell)>,
}

impl Table {
    /// Creates an empty table with a title and column headers; the headers
    /// double as the record's keys.
    pub fn new(title: impl Into<String>, headers: &[&'static str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.to_vec(),
            ..Table::default()
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width does not match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Attaches a figure-level value that belongs to no single row.
    pub fn extra(&mut self, key: &'static str, value: Cell) -> &mut Self {
        self.extras.push((key, value));
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text, extras below it.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        for (header, width) in self.headers.iter().zip(&widths) {
            out.push_str(&format!("{:>width$}", header, width = width + 2));
        }
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum::<usize>()));
        out.push('\n');
        for row in &rows {
            for (cell, width) in row.iter().zip(&widths) {
                out.push_str(&format!("{:>width$}", cell, width = width + 2));
            }
            out.push('\n');
        }
        for (key, value) in &self.extras {
            out.push_str(&format!("{key}: {}\n", value.render()));
        }
        out
    }

    /// Renders the table as `{"cases":[{column: value, ...}], extra: value}`.
    pub fn to_json(&self) -> Json {
        let cases = self
            .rows
            .iter()
            .map(|row| {
                Json::obj(
                    self.headers
                        .iter()
                        .zip(row)
                        .map(|(&header, cell)| (header, cell.to_json()))
                        .collect(),
                )
            })
            .collect();
        let mut pairs = vec![("cases", Json::Arr(cases))];
        pairs.extend(
            self.extras
                .iter()
                .map(|(key, value)| (*key, value.to_json())),
        );
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_rows() {
        let mut table = Table::new("demo", &["name", "value"]);
        table.row(vec!["x".into(), 1u64.into()]);
        table.row(vec!["longer-name".into(), Cell::Ratio(2.5)]);
        let text = table.render();
        assert!(text.contains("demo"));
        assert!(text.contains("longer-name"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        // Every data line has the same width.
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[2].len().max(lines[1].len()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_row_width_panics() {
        let mut table = Table::new("demo", &["a", "b"]);
        table.row(vec!["only-one".into()]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(Cell::Seconds(0.123456).render(), "0.1235");
        assert_eq!(Cell::Ratio(2.46913).render(), "2.47");
        assert_eq!(Cell::Count(42).render(), "42");
    }

    #[test]
    fn json_keeps_full_precision_and_extras() {
        let mut table = Table::new("demo", &["name", "seconds", "states"]);
        table.row(vec!["a".into(), Cell::Seconds(0.123456), 7u64.into()]);
        table.extra("queries_per_second", Cell::Ratio(12.5));
        assert_eq!(
            table.to_json().render(),
            "{\"cases\":[{\"name\":\"a\",\"seconds\":0.123456,\"states\":7}],\
             \"queries_per_second\":12.5}"
        );
        assert!(table.render().ends_with("queries_per_second: 12.50\n"));
    }
}
