//! Output checkers. Each returns `Err` with a one-line reason when the
//! program's output is wrong; the benchmark exits non-zero on any.

use mtk_core::sizing::{DelayPair, ScreenedVector};
use mtk_trace::json::{parse, JsonValue};

fn pair_bits(p: &DelayPair) -> (u64, u64) {
    (p.cmos.to_bits(), p.mtcmos.to_bits())
}

/// The ranking (and quarantine set) screened at one thread count must
/// equal the one screened at another, bit for bit.
///
/// # Errors
///
/// The first differing rank.
pub fn rankings_equal(
    a: &[ScreenedVector],
    a_quarantined: &[usize],
    b: &[ScreenedVector],
    b_quarantined: &[usize],
) -> Result<(), String> {
    if a_quarantined != b_quarantined {
        return Err("quarantine sets differ between thread counts".into());
    }
    if a.len() != b.len() {
        return Err(format!(
            "ranking lengths differ: {} vs {}",
            a.len(),
            b.len()
        ));
    }
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        if x.index != y.index || pair_bits(&x.delays) != pair_bits(&y.delays) {
            return Err(format!("rank {rank} differs: #{} vs #{}", x.index, y.index));
        }
    }
    Ok(())
}

/// The cached bisection must return exactly the uncached W/L.
///
/// # Errors
///
/// When the two sizes differ in any bit.
pub fn sizes_bit_equal(cached: f64, uncached: f64) -> Result<(), String> {
    if cached.to_bits() == uncached.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "cached W/L {cached:e} != uncached W/L {uncached:e}"
        ))
    }
}

/// Direct SPICE delay pairs must bit-equal the pipeline's verified pairs.
///
/// # Errors
///
/// The first candidate whose pairs differ.
pub fn spice_pairs_equal(
    direct: &[Option<DelayPair>],
    pipeline: &[Option<DelayPair>],
) -> Result<(), String> {
    if direct.len() != pipeline.len() {
        return Err(format!(
            "{} direct SPICE pairs vs {} verified",
            direct.len(),
            pipeline.len()
        ));
    }
    for (k, (d, p)) in direct.iter().zip(pipeline).enumerate() {
        if d.as_ref().map(pair_bits) != p.as_ref().map(pair_bits) {
            return Err(format!("candidate {k}: direct {d:?} != verified {p:?}"));
        }
    }
    Ok(())
}

const COLD_PREFIX: &str = "{\"status\":\"ok\",\"cached\":false,";
const WARM_PREFIX: &str = "{\"status\":\"ok\",\"cached\":true,";

/// A warm serve response must say `cached:true`, its cold counterpart
/// `cached:false`, and both must carry the same `result` and `trace`
/// bytes.
///
/// # Errors
///
/// A reason naming what differs.
pub fn warm_matches_cold(cold: &str, warm: &str) -> Result<(), String> {
    let body = |line: &str, prefix: &str, what: &str| -> Result<String, String> {
        let v = parse(line).map_err(|e| format!("{what} response is not JSON: {e}"))?;
        let ok = v.get("status").and_then(JsonValue::as_str) == Some("ok");
        let has_both = v.get("result").is_some() && v.get("trace").is_some();
        match line.strip_prefix(prefix) {
            Some(rest) if ok && has_both => Ok(rest.to_string()),
            _ => Err(format!(
                "{what} response does not start with {prefix}…result…trace: {}",
                line.chars().take(80).collect::<String>()
            )),
        }
    };
    let cold_body = body(cold, COLD_PREFIX, "cold")?;
    let warm_body = body(warm, WARM_PREFIX, "warm")?;
    if cold_body == warm_body {
        Ok(())
    } else {
        Err("warm response's result/trace bytes differ from the cold response".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_check_accepts_a_replay_and_rejects_tampering() {
        let cold = r#"{"status":"ok","cached":false,"result":{"w_over_l":1.5},"trace":{"v":6}}"#;
        let warm = r#"{"status":"ok","cached":true,"result":{"w_over_l":1.5},"trace":{"v":6}}"#;
        assert!(warm_matches_cold(cold, warm).is_ok());
        let altered = warm.replace("1.5", "1.6");
        assert!(warm_matches_cold(cold, &altered).is_err());
        assert!(
            warm_matches_cold(cold, cold).is_err(),
            "warm must say cached:true"
        );
        assert!(
            warm_matches_cold(warm, warm).is_err(),
            "cold must say cached:false"
        );
        assert!(warm_matches_cold(cold, r#"{"status":"busy"}"#).is_err());
    }

    #[test]
    fn size_check_rejects_one_flipped_bit() {
        let w = 71.12034904533868f64;
        assert!(sizes_bit_equal(w, w).is_ok());
        assert!(sizes_bit_equal(f64::from_bits(w.to_bits() ^ 1), w).is_err());
    }

    #[test]
    fn pair_and_ranking_checks_reject_changes() {
        let p = DelayPair {
            cmos: 1e-9,
            mtcmos: 1.1e-9,
        };
        let q = DelayPair {
            mtcmos: f64::from_bits(p.mtcmos.to_bits() ^ 1),
            ..p
        };
        assert!(spice_pairs_equal(&[Some(p), None], &[Some(p), None]).is_ok());
        assert!(spice_pairs_equal(&[Some(p)], &[Some(q)]).is_err());
        assert!(spice_pairs_equal(&[Some(p)], &[None]).is_err());
        let a = [ScreenedVector {
            index: 3,
            delays: p,
        }];
        let b = [ScreenedVector {
            index: 4,
            delays: p,
        }];
        assert!(rankings_equal(&a, &[], &a, &[]).is_ok());
        assert!(rankings_equal(&a, &[], &b, &[]).is_err());
        assert!(rankings_equal(&a, &[1], &a, &[]).is_err());
    }
}
