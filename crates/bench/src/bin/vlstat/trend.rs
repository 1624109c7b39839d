//! `vlstat trend`: the harness's performance history, one JSON row per
//! measured change in `results/perf_history.jsonl`, rendered as text.
//!
//! Every row carries the same core: `pr` (an integer, strictly rising
//! from row to row), `change`, `method` (strings), `claim` (a string, or
//! `null` for a change that claims no gain) and `claim_met` (a boolean,
//! or `null`). An optional `tables` list holds the measurements as
//! `{title, columns, rows}` objects, each row a list of cells as wide as
//! `columns`. A row may also say `note`, `parent`, `date` and `host`
//! (strings, not rendered); any other key is refused, so what a change
//! measured lives in its tables.
//!
//! Rows are read with the benchmark's JSON reader (`benchmark/src/json.rs`,
//! compiled in by path), so the workspace keeps one JSON parser.

use std::fmt::Write as _;

#[allow(dead_code)] // the reader's accessors and `quote` serve the benchmark
#[path = "../../../../../benchmark/src/json.rs"]
pub mod json;

use json::Json;

/// A string or number as text (a number as `f64` prints it); `None` for
/// anything else.
pub fn text(v: &Json) -> Option<String> {
    match v {
        Json::Str(s) => Some(s.clone()),
        Json::Num(n) => Some(n.to_string()),
        _ => None,
    }
}

/// One measurements table of a row.
#[derive(Debug)]
pub struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

/// One row of the history: the core every row carries, and its tables.
#[derive(Debug)]
pub struct Row {
    pub pr: u64,
    pub change: String,
    pub claim: Option<String>,
    pub claim_met: Option<bool>,
    pub method: String,
    pub tables: Vec<Table>,
}

/// Cells of one table row: strings and numbers as their text.
fn cells(v: &Json, what: &str) -> Result<Vec<String>, String> {
    let Json::Arr(items) = v else {
        return Err(format!("{what} is not a list"));
    };
    items.iter().map(text).collect::<Option<_>>().ok_or(format!(
        "{what} holds a cell that is not a string or number"
    ))
}

fn table(v: &Json, i: usize) -> Result<Table, String> {
    let what = format!("tables[{i}]");
    let title = match v.get("title") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err(format!("{what} has no string \"title\"")),
    };
    let columns = cells(
        v.get("columns")
            .ok_or(format!("{what} has no \"columns\""))?,
        &format!("{what}.columns"),
    )?;
    let Some(Json::Arr(raw)) = v.get("rows") else {
        return Err(format!("{what} has no \"rows\" list"));
    };
    let mut rows = Vec::with_capacity(raw.len());
    for (r, raw) in raw.iter().enumerate() {
        let row = cells(raw, &format!("{what}.rows[{r}]"))?;
        if row.len() != columns.len() {
            return Err(format!(
                "{what}.rows[{r}] has {} cells for {} columns",
                row.len(),
                columns.len()
            ));
        }
        rows.push(row);
    }
    Ok(Table {
        title,
        columns,
        rows,
    })
}

fn row(v: &Json) -> Result<Row, String> {
    let Json::Obj(fields) = v else {
        return Err("a row is not an object".into());
    };
    let need = |key: &str| {
        v.get(key)
            .ok_or(format!("missing required field \"{key}\""))
    };
    let string = |key: &str| match need(key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("\"{key}\" is not a string")),
    };
    let pr = match need("pr")? {
        &Json::Num(n) if n >= 0.0 && n.fract() == 0.0 => n as u64,
        _ => return Err("\"pr\" is not a whole number".into()),
    };
    let claim = match need("claim")? {
        Json::Null => None,
        Json::Str(s) => Some(s.clone()),
        _ => return Err("\"claim\" is neither a string nor null".into()),
    };
    let claim_met = match need("claim_met")? {
        Json::Null => None,
        Json::Bool(b) => Some(*b),
        _ => return Err("\"claim_met\" is neither a boolean nor null".into()),
    };
    let tables = match v.get("tables") {
        None => Vec::new(),
        Some(Json::Arr(ts)) => ts
            .iter()
            .enumerate()
            .map(|(i, t)| table(t, i))
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("\"tables\" is not a list".into()),
    };
    const KEYS: [&str; 10] = [
        "pr",
        "change",
        "claim",
        "claim_met",
        "method",
        "tables",
        "note",
        "parent",
        "date",
        "host",
    ];
    let (change, method) = (string("change")?, string("method")?);
    if let Some(key) = fields.keys().find(|k| !KEYS.contains(&k.as_str())) {
        return Err(format!(
            "unknown field \"{key}\" (a measurement goes in \"tables\")"
        ));
    }
    Ok(Row {
        pr,
        change,
        claim,
        claim_met,
        method,
        tables,
    })
}

/// Parse the history, one row per non-blank line. An error names the
/// 1-based line it is on.
pub fn parse_history(text: &str) -> Result<Vec<Row>, String> {
    let mut rows: Vec<Row> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", n + 1);
        let r = row(&Json::parse(line).map_err(at)?).map_err(at)?;
        if let Some(prev) = rows.last().filter(|p| p.pr >= r.pr) {
            return Err(at(format!(
                "pr {} does not follow pr {} (rows rise strictly by pr)",
                r.pr, prev.pr
            )));
        }
        rows.push(r);
    }
    Ok(rows)
}

/// A cell of a markdown table: pipes escaped, line breaks flattened.
fn cell(s: &str) -> String {
    s.replace('|', "\\|").replace('\n', " ")
}

/// Whether a column reads as figures: every cell starts, past any bold
/// markers, with a digit or a sign.
fn figures(cells: &[&String]) -> bool {
    cells.iter().all(|c| {
        let c = c.trim_start_matches('*');
        c.starts_with(|ch: char| ch.is_ascii_digit() || "+-\u{2212}~".contains(ch))
    })
}

/// A markdown table. Columns of figures are right-aligned, the rest
/// left-aligned; each is padded to its widest cell but a last column of
/// text, which may run long.
pub fn markdown(columns: &[String], rows: &[Vec<String>]) -> String {
    let head: Vec<String> = columns.iter().map(|c| cell(c)).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| cell(c)).collect())
        .collect();
    let last = head.len().saturating_sub(1);
    let layout: Vec<(usize, bool)> = (0..head.len())
        .map(|i| {
            let col: Vec<&String> = body.iter().map(|r| &r[i]).collect();
            let width = std::iter::once(&head[i])
                .chain(col.iter().copied())
                .map(|c| c.chars().count())
                .max()
                .unwrap_or(0)
                .max(3);
            let right = !col.is_empty() && figures(&col);
            (if i == last && !right { 0 } else { width }, right)
        })
        .collect();
    let line = |cells: &[String]| {
        let mut out = String::from("|");
        for (c, &(w, right)) in cells.iter().zip(&layout) {
            let pad = " ".repeat(w.saturating_sub(c.chars().count()));
            if right {
                let _ = write!(out, " {pad}{c} |");
            } else {
                let _ = write!(out, " {c}{pad} |");
            }
        }
        out.push('\n');
        out
    };
    let mut out = line(&head);
    out.push('|');
    for &(w, right) in &layout {
        let dashes = "-".repeat(w.max(3));
        let _ = write!(out, "-{dashes}{}|", if right { ':' } else { '-' });
    }
    out.push('\n');
    for r in &body {
        out.push_str(&line(r));
    }
    out
}

fn met(row: &Row) -> &'static str {
    match row.claim_met {
        Some(true) => "yes",
        Some(false) => "no",
        None => "-",
    }
}

/// One line per row: the change, what it claimed and whether the claim
/// held, and how many tables it recorded.
pub fn summary(rows: &[Row]) -> String {
    let columns = ["PR", "claim", "met", "tables", "change"].map(String::from);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pr.to_string(),
                r.claim.clone().unwrap_or_else(|| "none".into()),
                met(r).into(),
                r.tables.len().to_string(),
                r.change.clone(),
            ]
        })
        .collect();
    markdown(&columns, &body)
}

/// One row in full: its core and every table.
pub fn tables(row: &Row) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "PR {}: {}", row.pr, row.change);
    let claim = row.claim.as_deref().unwrap_or("none");
    let _ = writeln!(out, "claim: {claim} (met: {})", met(row));
    let _ = writeln!(out, "method: {}", row.method);
    for t in &row.tables {
        let _ = write!(out, "\n## {}\n\n{}", t.title, markdown(&t.columns, &t.rows));
    }
    out
}
