//! Output checks. Every run applies them; one failing check fails the
//! operation it belongs to, and a run with any failure exits non-zero.

use pangraph::layout2d::Layout2D;

/// A layout is usable only when every coordinate is finite.
pub fn finite(layout: &Layout2D) -> Result<(), String> {
    if layout.all_finite() {
        Ok(())
    } else {
        Err("layout has a non-finite coordinate".into())
    }
}

/// Decode `.lay` bytes and check them against the graph they lay out:
/// the node count must match and every coordinate must be finite.
pub fn decode_lay(bytes: &[u8], nodes: usize) -> Result<Layout2D, String> {
    let layout = pgio::read_lay(bytes).map_err(|e| format!("result does not decode: {e}"))?;
    if layout.node_count() != nodes {
        return Err(format!(
            "result has {} nodes, the graph has {nodes}",
            layout.node_count()
        ));
    }
    finite(&layout)?;
    Ok(layout)
}

/// Sampled path stress must be a finite, positive number no larger than
/// the workload's reference bound.
pub fn stress_within(stress: f64, bound: f64) -> Result<(), String> {
    if stress.is_finite() && stress > 0.0 && stress <= bound {
        Ok(())
    } else {
        Err(format!("stress {stress} outside (0, {bound}]"))
    }
}

/// The engine must have applied work.
pub fn applied(terms: u64) -> Result<(), String> {
    if terms > 0 {
        Ok(())
    } else {
        Err("engine applied no terms".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout2D {
        Layout2D::from_flat(vec![0.0, 1.0, 2.0, 3.0], vec![0.5, 1.5, 2.5, 3.5])
    }

    #[test]
    fn good_layout_round_trips() {
        let bytes = pgio::write_lay(&layout());
        assert_eq!(decode_lay(&bytes, 2).unwrap(), layout());
    }

    #[test]
    fn nan_coordinate_trips_the_check() {
        let mut l = layout();
        l.set(1, true, f64::NAN, 0.0);
        assert!(finite(&l).is_err());
        assert!(decode_lay(&pgio::write_lay(&l), 2).is_err());
    }

    #[test]
    fn truncated_lay_trips_the_check() {
        let bytes = pgio::write_lay(&layout());
        assert!(decode_lay(&bytes[..bytes.len() - 1], 2).is_err());
        assert!(decode_lay(&bytes[..10], 2).is_err());
    }

    #[test]
    fn wrong_node_count_trips_the_check() {
        assert!(decode_lay(&pgio::write_lay(&layout()), 3).is_err());
    }

    #[test]
    fn stress_bound_and_nan_trip_the_check() {
        assert!(stress_within(0.01, 0.02).is_ok());
        assert!(stress_within(0.03, 0.02).is_err());
        assert!(stress_within(f64::NAN, 0.02).is_err());
        assert!(applied(0).is_err());
    }
}
