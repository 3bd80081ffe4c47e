//! CSV serialization of generated workloads, matching the column format
//! the `stardust` CLI consumes (one column per stream, `#` comments).

use std::fmt::Write as _;

/// Renders streams as CSV columns (rows = time steps).
///
/// # Panics
/// Panics if the streams differ in length or none are given.
pub fn to_csv(streams: &[Vec<f64>]) -> String {
    assert!(!streams.is_empty(), "need at least one stream");
    let n = streams[0].len();
    assert!(streams.iter().all(|s| s.len() == n), "streams must have equal lengths");
    let mut out = String::with_capacity(n * streams.len() * 8);
    for i in 0..n {
        for (s, col) in streams.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            // Shortest round-trippable representation.
            write!(out, "{}", col[i]).expect("string write");
        }
        out.push('\n');
    }
    out
}

/// Parses the CSV column format back into streams — inverse of
/// [`to_csv`], tolerant of blank lines and `#` comments.
///
/// # Errors
/// Returns a description of the first malformed line.
pub fn from_csv(text: &str) -> Result<Vec<Vec<f64>>, String> {
    let mut streams: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let row: Result<Vec<f64>, String> = line
            .split(',')
            .map(|c| {
                c.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("line {}: bad number '{c}'", lineno + 1))
            })
            .collect();
        let row = row?;
        if streams.is_empty() {
            streams = row.into_iter().map(|v| vec![v]).collect();
        } else if row.len() != streams.len() {
            return Err(format!(
                "line {}: expected {} columns, found {}",
                lineno + 1,
                streams.len(),
                row.len()
            ));
        } else {
            for (col, v) in streams.iter_mut().zip(row) {
                col.push(v);
            }
        }
    }
    if streams.is_empty() {
        return Err("no data rows".to_string());
    }
    Ok(streams)
}

/// Writes streams to a file in the CSV column format.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_csv(path: &std::path::Path, streams: &[Vec<f64>]) -> std::io::Result<()> {
    std::fs::write(path, to_csv(streams))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let streams = vec![vec![1.0, 2.5, -3.0], vec![0.125, 7.0, 1e-9]];
        let text = to_csv(&streams);
        let back = from_csv(&text).expect("roundtrip");
        assert_eq!(back, streams);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n1,2\n\n3,4\n";
        assert_eq!(from_csv(text).unwrap(), vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
    }

    #[test]
    fn errors() {
        assert!(from_csv("").is_err());
        assert!(from_csv("1,2\n3\n").is_err());
        assert!(from_csv("x\n").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("stardust_csv_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streams.csv");
        let streams = crate::random_walk::random_walk_streams(3, 2, 50);
        write_csv(&path, &streams).unwrap();
        let back = from_csv(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in streams.iter().zip(&back) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn unequal_lengths_rejected() {
        to_csv(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
