//! Edit distances.
//!
//! Two uses in the workspace:
//! * the MVMM mixture weight `w(D,T)` is a Gaussian of the edit distance
//!   between the live user context and the PST state a component matched
//!   (sequences of `QueryId`s);
//! * the session-pattern classifier detects *spelling change* via character
//!   edit distance between query strings.

/// Levenshtein distance between two slices of any `Eq` items
/// (insertions, deletions and substitutions all cost 1).
///
/// Two-row dynamic program: O(|a|·|b|) time, O(min(|a|,|b|)) space.
pub fn levenshtein<T: Eq>(a: &[T], b: &[T]) -> usize {
    // Ensure `b` is the shorter side so the row stays small.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ai) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, bj) in b.iter().enumerate() {
            let cost = usize::from(ai != bj);
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// Levenshtein distance between two strings, by Unicode scalar values.
pub fn levenshtein_str(a: &str, b: &str) -> usize {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    levenshtein(&av, &bv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_examples() {
        assert_eq!(levenshtein_str("kitten", "sitting"), 3);
        assert_eq!(levenshtein_str("goggle", "google"), 1); // paper's Table I typo
        assert_eq!(levenshtein_str("youtub", "youtube"), 1);
        assert_eq!(levenshtein_str("", ""), 0);
        assert_eq!(levenshtein_str("abc", ""), 3);
        assert_eq!(levenshtein_str("", "abc"), 3);
    }

    #[test]
    fn works_on_id_slices() {
        assert_eq!(levenshtein(&[1u32, 2, 3], &[1, 3]), 1);
        assert_eq!(levenshtein(&[1u32, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(levenshtein::<u32>(&[], &[7, 8]), 2);
    }

    #[test]
    fn symmetry_small_cases() {
        let cases = [("abc", "acb"), ("query one", "query two"), ("a", "")];
        for (a, b) in cases {
            assert_eq!(levenshtein_str(a, b), levenshtein_str(b, a));
        }
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::rng::{Rng, StdRng};

    fn rand_str(rng: &mut StdRng, alphabet: u8, max_len: usize) -> String {
        let len = rng.random_range(0usize..=max_len);
        (0..len)
            .map(|_| (b'a' + rng.random_range(0..alphabet)) as char)
            .collect()
    }

    #[test]
    fn metric_axioms_hold() {
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let a = rand_str(&mut rng, 3, 12);
            let b = rand_str(&mut rng, 3, 12);
            let c = rand_str(&mut rng, 3, 12);
            // Identity and symmetry.
            assert_eq!(levenshtein_str(&a, &a), 0, "case {case}");
            let ab = levenshtein_str(&a, &b);
            assert_eq!(ab, levenshtein_str(&b, &a), "case {case}");
            // Bounds.
            let (la, lb) = (a.chars().count(), b.chars().count());
            assert!(ab <= la.max(lb), "case {case}");
            assert!(ab >= la.abs_diff(lb), "case {case}");
            assert_eq!(ab == 0, a == b, "case {case}");
            // Triangle inequality.
            let bc = levenshtein_str(&b, &c);
            let ac = levenshtein_str(&a, &c);
            assert!(ac <= ab + bc, "case {case}: {a:?} {b:?} {c:?}");
        }
    }

    #[test]
    fn single_edit_is_distance_one() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(500 + case);
            let a = {
                let mut s = rand_str(&mut rng, 26, 9);
                s.push('m'); // guarantee non-empty
                s
            };
            let chars: Vec<char> = a.chars().collect();
            let i = rng.random_range(0usize..chars.len());
            let mut edited = chars.clone();
            edited[i] = if edited[i] == 'z' { 'a' } else { 'z' };
            let edited: String = edited.into_iter().collect();
            assert_eq!(levenshtein_str(&a, &edited), 1, "case {case}");
        }
    }

    #[test]
    fn id_slices_match_char_encoding() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(900 + case);
            let gen_ids = |rng: &mut StdRng| -> Vec<u32> {
                let len = rng.random_range(0usize..10);
                (0..len).map(|_| rng.random_range(0u32..4)).collect()
            };
            let a = gen_ids(&mut rng);
            let b = gen_ids(&mut rng);
            // Encode ids as distinct chars and compare implementations.
            let enc =
                |v: &[u32]| -> String { v.iter().map(|&x| (b'a' + x as u8) as char).collect() };
            assert_eq!(
                levenshtein(&a, &b),
                levenshtein_str(&enc(&a), &enc(&b)),
                "case {case}"
            );
        }
    }
}
