//! Jaro and Jaro-Winkler similarity — the kernel the paper uses for
//! author-name comparison (Appendix B).
//!
//! Both run without allocating on ASCII inputs of up to 64 characters
//! (the common case for rendered names): the strings are compared as
//! bytes and the match flags live on the stack. Longer inputs keep their
//! flags on the heap; non-ASCII inputs are decoded to `char`s once per
//! call.

/// Longest input whose match flags fit in the stack arrays; longer
/// inputs fall back to heap-allocated flags.
const STACK_FLAGS: usize = 64;

/// Jaro similarity in `[0, 1]`.
///
/// Counts matching characters within the standard window
/// `max(|a|, |b|)/2 − 1` and transpositions among them.
pub fn jaro(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        jaro_slices(a.as_bytes(), b.as_bytes())
    } else {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        jaro_slices(&a, &b)
    }
}

/// [`jaro`] over element slices (bytes of ASCII strings, or decoded
/// `char`s).
fn jaro_slices<T: Copy + PartialEq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut a_stack = [false; STACK_FLAGS];
    let mut b_stack = [false; STACK_FLAGS];
    let mut a_heap = Vec::new();
    let mut b_heap = Vec::new();
    let a_matched = flags(&mut a_stack, &mut a_heap, a.len());
    let b_taken = flags(&mut b_stack, &mut b_heap, b.len());
    let mut m = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == ca {
                b_taken[j] = true;
                a_matched[i] = true;
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }
    // Transpositions: compare the matched sequences in order.
    let a_seq = a.iter().zip(a_matched.iter()).filter(|(_, &f)| f);
    let b_seq = b.iter().zip(b_taken.iter()).filter(|(_, &f)| f);
    let transpositions = a_seq.zip(b_seq).filter(|((x, _), (y, _))| x != y).count() / 2;
    let m = m as f64;
    let t = transpositions as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// `len` cleared flags: a prefix of `stack` when it fits, else `heap`
/// grown to `len`.
fn flags<'a>(
    stack: &'a mut [bool; STACK_FLAGS],
    heap: &'a mut Vec<bool>,
    len: usize,
) -> &'a mut [bool] {
    if len <= STACK_FLAGS {
        &mut stack[..len]
    } else {
        heap.resize(len, false);
        heap
    }
}

/// Jaro-Winkler similarity: Jaro boosted by up to 4 characters of common
/// prefix with scaling factor `p = 0.1`.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    const PREFIX_SCALE: f64 = 0.1;
    const MAX_PREFIX: usize = 4;
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(MAX_PREFIX)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * PREFIX_SCALE * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating implementation the kernel replaced, kept as the
    /// exactness reference.
    fn jaro_reference(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_taken = vec![false; b.len()];
        let mut a_matches: Vec<char> = Vec::new();
        let mut b_match_flags = vec![false; b.len()];
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_taken[j] && b[j] == ca {
                    b_taken[j] = true;
                    b_match_flags[j] = true;
                    a_matches.push(ca);
                    break;
                }
            }
        }
        let m = a_matches.len();
        if m == 0 {
            return 0.0;
        }
        // Transpositions: compare the matched sequences in order.
        let b_matches: Vec<char> = b
            .iter()
            .zip(b_match_flags.iter())
            .filter(|(_, &f)| f)
            .map(|(&c, _)| c)
            .collect();
        let transpositions = a_matches
            .iter()
            .zip(b_matches.iter())
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        let t = transpositions as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    fn jaro_winkler_reference(a: &str, b: &str) -> f64 {
        let j = jaro_reference(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }

    /// Both kernels must equal the reference bit for bit.
    fn assert_exact(a: &str, b: &str) {
        assert_eq!(
            jaro(a, b).to_bits(),
            jaro_reference(a, b).to_bits(),
            "jaro({a:?}, {b:?})"
        );
        assert_eq!(
            jaro_winkler(a, b).to_bits(),
            jaro_winkler_reference(a, b).to_bits(),
            "jaro_winkler({a:?}, {b:?})"
        );
    }

    #[test]
    fn bit_identical_to_the_allocating_reference() {
        // Random ASCII strings of length 0–70 over a small alphabet (so
        // matches and transpositions are frequent), crossing the
        // stack-flag boundary at 64.
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = |bound: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % bound
        };
        let alphabet = b"abcde .";
        for _ in 0..2000 {
            let mut strings = [String::new(), String::new()];
            for s in &mut strings {
                let len = next(71);
                *s = (0..len)
                    .map(|_| char::from(alphabet[next(alphabet.len())]))
                    .collect();
            }
            let [a, b] = strings;
            assert_exact(&a, &b);
            // A near copy: long strings with long common stretches.
            let mut c = a.clone();
            if !c.is_empty() {
                let at = next(c.len());
                c.replace_range(at..=at, "x");
            }
            assert_exact(&a, &c);
        }
        let long_a = "ab".repeat(35);
        let long_b = "ba".repeat(33);
        assert_exact(&long_a, &long_b);
        assert_exact(&long_a[..64], &long_b[..64]);
        assert_exact(&long_a[..65], &long_b[..63]);
        // Non-ASCII names, mixed scripts, ASCII against non-ASCII, and
        // the empty and one-character edge cases.
        let names = [
            "müller",
            "muller",
            "łukasz",
            "lukasz",
            "josé garcía",
            "jose garcia",
            "山田 太郎",
            "yamada 太郎",
            "ñ",
            "n",
            "a",
            "b",
            "",
            "ßtraße",
        ];
        for a in names {
            for b in names {
                assert_exact(a, b);
            }
        }
    }

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-3, "{a} != {b}");
    }

    #[test]
    fn identical_strings_score_one() {
        close(jaro("martha", "martha"), 1.0);
        close(jaro_winkler("smith", "smith"), 1.0);
        close(jaro("", ""), 1.0);
    }

    #[test]
    fn disjoint_strings_score_zero() {
        close(jaro("abc", "xyz"), 0.0);
        close(jaro("a", ""), 0.0);
        close(jaro("", "a"), 0.0);
    }

    #[test]
    fn classic_reference_values() {
        // Standard textbook examples.
        close(jaro("martha", "marhta"), 0.9444);
        close(jaro("dixon", "dicksonx"), 0.7667);
        close(jaro_winkler("martha", "marhta"), 0.9611);
        close(jaro_winkler("dixon", "dicksonx"), 0.8133);
        close(jaro_winkler("dwayne", "duane"), 0.84);
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("smith", "smyth"), ("j. doe", "john doe"), ("", "x")] {
            close(jaro(a, b), jaro(b, a));
            close(jaro_winkler(a, b), jaro_winkler(b, a));
        }
    }

    #[test]
    fn winkler_boosts_common_prefix() {
        // Same Jaro ingredients, different prefixes.
        let plain = jaro("smith", "smyth");
        let boosted = jaro_winkler("smith", "smyth");
        assert!(boosted > plain);
        // No common prefix ⇒ no boost.
        close(jaro("atmith", "btmith"), jaro_winkler("atmith", "btmith"));
    }

    #[test]
    fn bounded_in_unit_interval() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("v rastogi", "vibhor rastogi"),
            ("a", "ab"),
            ("ab", "ba"),
        ] {
            let s = jaro_winkler(a, b);
            assert!((0.0..=1.0).contains(&s), "{s} out of range for {a},{b}");
        }
    }

    #[test]
    fn unicode_is_handled_per_char() {
        close(jaro("müller", "müller"), 1.0);
        assert!(jaro("müller", "muller") > 0.8);
    }
}
