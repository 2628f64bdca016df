//! Raw search-log records (the paper's Table III format) and their
//! human-readable TSV form mirroring Table III
//! (`machine ⟶ timestamp ⟶ query ⟶ #clicks ⟶ click list`).

/// A URL click following a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Click {
    /// Clicked URL.
    pub url: String,
    /// Click time (seconds since epoch start).
    pub timestamp: u64,
}

/// One raw log line: a query issued by a machine, with its clicks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawLogRecord {
    /// Anonymized machine (user) identifier.
    pub machine_id: u64,
    /// Query issue time (seconds since epoch start).
    pub timestamp: u64,
    /// Query text.
    pub query: String,
    /// Clicks on result URLs, in time order.
    pub clicks: Vec<Click>,
}

impl RawLogRecord {
    /// Time of the last activity in this record (query or final click);
    /// the 30-minute rule segments on gaps between activities.
    pub fn last_activity(&self) -> u64 {
        self.clicks
            .iter()
            .map(|c| c.timestamp)
            .max()
            .unwrap_or(self.timestamp)
            .max(self.timestamp)
    }
}

/// Render records as TSV, one per line (Table III layout).
pub fn to_tsv(records: &[RawLogRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.machine_id.to_string());
        out.push('\t');
        out.push_str(&r.timestamp.to_string());
        out.push('\t');
        out.push_str(&r.query);
        out.push('\t');
        out.push_str(&r.clicks.len().to_string());
        out.push('\t');
        for (i, c) in r.clicks.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(&c.url);
            out.push(',');
            out.push_str(&c.timestamp.to_string());
        }
        out.push('\n');
    }
    out
}

/// Parse the TSV form produced by [`to_tsv`].
///
/// Returns an error message naming the offending line on malformed input.
pub fn from_tsv(text: &str) -> Result<Vec<RawLogRecord>, String> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(5, '\t');
        let err = |what: &str| format!("line {}: {}", lineno + 1, what);
        let machine_id: u64 = parts
            .next()
            .ok_or_else(|| err("missing machine id"))?
            .parse()
            .map_err(|_| err("bad machine id"))?;
        let timestamp: u64 = parts
            .next()
            .ok_or_else(|| err("missing timestamp"))?
            .parse()
            .map_err(|_| err("bad timestamp"))?;
        let query = parts.next().ok_or_else(|| err("missing query"))?.to_owned();
        let n_clicks: usize = parts
            .next()
            .ok_or_else(|| err("missing click count"))?
            .parse()
            .map_err(|_| err("bad click count"))?;
        let clicks_field = parts.next().unwrap_or("");
        let mut clicks = Vec::new();
        if !clicks_field.is_empty() {
            for chunk in clicks_field.split(';') {
                let (url, ts) = chunk
                    .rsplit_once(',')
                    .ok_or_else(|| err("bad click entry"))?;
                clicks.push(Click {
                    url: url.to_owned(),
                    timestamp: ts.parse().map_err(|_| err("bad click timestamp"))?,
                });
            }
        }
        if clicks.len() != n_clicks {
            return Err(err("click count mismatch"));
        }
        records.push(RawLogRecord {
            machine_id,
            timestamp,
            query,
            clicks,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<RawLogRecord> {
        vec![
            RawLogRecord {
                machine_id: 1,
                timestamp: 521,
                query: "kidney stones".into(),
                clicks: vec![
                    Click {
                        url: "www.aaa.com/1".into(),
                        timestamp: 546,
                    },
                    Click {
                        url: "www.bbb.com/2".into(),
                        timestamp: 583,
                    },
                ],
            },
            RawLogRecord {
                machine_id: 1,
                timestamp: 655,
                query: "kidney stone symptoms".into(),
                clicks: vec![],
            },
            RawLogRecord {
                machine_id: 9,
                timestamp: 100,
                query: "nokia n73".into(),
                clicks: vec![Click {
                    url: "www.ccc.com/9".into(),
                    timestamp: 130,
                }],
            },
        ]
    }

    #[test]
    fn last_activity_includes_clicks() {
        let r = &sample()[0];
        assert_eq!(r.last_activity(), 583);
        let r2 = &sample()[1];
        assert_eq!(r2.last_activity(), 655);
    }

    #[test]
    fn tsv_roundtrip() {
        let records = sample();
        let text = to_tsv(&records);
        let parsed = from_tsv(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn tsv_rejects_malformed() {
        assert!(from_tsv("not a record").is_err());
        assert!(from_tsv("1\tx\tq\t0\t").is_err());
        // A click count the clicks do not match is refused, and so is a
        // count no line could hold: a mismatch, not an allocation.
        assert!(from_tsv("1\t5\tq\t2\tu,1").is_err());
        let huge = from_tsv("1\t5\tq\t1000000000000000000\t");
        assert_eq!(huge, Err("line 1: click count mismatch".to_owned()));
    }

    #[test]
    fn tsv_skips_blank_lines() {
        let text = format!("\n{}\n", to_tsv(&sample()));
        assert_eq!(from_tsv(&text).unwrap(), sample());
    }

    #[test]
    fn queries_with_commas_survive_tsv() {
        // Click URLs use rsplit_once so commas in URLs would break, but our
        // synthetic URLs never contain commas; queries may though.
        let rec = vec![RawLogRecord {
            machine_id: 2,
            timestamp: 10,
            query: "hotels, cheap".into(),
            clicks: vec![],
        }];
        assert_eq!(from_tsv(&to_tsv(&rec)).unwrap(), rec);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use sqp_common::rng::{Rng, StdRng};

    fn rand_text(rng: &mut StdRng, alphabet: &[u8], min: usize, max: usize) -> String {
        let len = rng.random_range(min..=max);
        (0..len)
            .map(|_| alphabet[rng.random_range(0usize..alphabet.len())] as char)
            .collect()
    }

    fn arb_record(rng: &mut StdRng) -> RawLogRecord {
        let n_clicks = rng.random_range(0usize..4);
        RawLogRecord {
            machine_id: rng.random_range(0u64..1000),
            timestamp: rng.random_range(0u64..1_000_000),
            query: rand_text(rng, b"abcdefghij0123456789 ", 1, 30),
            clicks: (0..n_clicks)
                .map(|_| Click {
                    url: rand_text(rng, b"abcdefg./0123456789", 1, 20),
                    timestamp: rng.random_range(0u64..1_000_000),
                })
                .collect(),
        }
    }

    fn arb_records(rng: &mut StdRng) -> Vec<RawLogRecord> {
        let n = rng.random_range(0usize..12);
        (0..n).map(|_| arb_record(rng)).collect()
    }

    #[test]
    fn tsv_roundtrips_arbitrary_records() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let records = arb_records(&mut rng);
            let text = to_tsv(&records);
            let parsed = from_tsv(&text).unwrap();
            assert_eq!(parsed, records, "case {case}");
        }
    }

    #[test]
    fn tsv_parser_never_panics_on_garbage() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(400 + case);
            // Fuzz: any text either parses or errors cleanly.
            let input = rand_text(&mut rng, b"abc019\t\n,;.", 0, 200);
            let _ = from_tsv(&input);
        }
    }

    #[test]
    fn last_activity_is_max_of_timestamps() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(800 + case);
            let r = arb_record(&mut rng);
            let la = r.last_activity();
            assert!(la >= r.timestamp, "case {case}");
            for c in &r.clicks {
                assert!(la >= c.timestamp, "case {case}");
            }
        }
    }
}
