//! JSON (de)serialization of [`Machine`] and [`Placement`], on `jsonlite`:
//! the `sim` block of a virtual-time `RunReport` embeds the machine a
//! simulation ran on.

use crate::machine::{Machine, Placement};
use jsonlite::Json;

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Numeric field that may legitimately be `f64::INFINITY` (the "disabled"
/// value of several [`Machine`] thresholds). `jsonlite` serializes non-finite
/// numbers as `null`, so `null` round-trips back to `+∞` here.
fn num_or_inf(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

fn get_f64_or_inf(obj: &Json, key: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Json::Null) => Ok(f64::INFINITY),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("non-numeric field `{key}`")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, String> {
    let v = get_f64(obj, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("field `{key}` is not a non-negative integer: {v}"));
    }
    Ok(v as usize)
}

impl Placement {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ranks_per_node", num(self.ranks_per_node as f64)),
            ("flops_per_rank", num(self.flops_per_rank)),
        ])
    }

    /// Parses the object form produced by [`Placement::to_json`].
    pub fn from_json(j: &Json) -> Result<Placement, String> {
        Ok(Placement {
            ranks_per_node: get_usize(j, "ranks_per_node")?,
            flops_per_rank: get_f64(j, "flops_per_rank")?,
        })
    }
}

impl Machine {
    /// JSON object form. Used by virtual-time `RunReport` artifacts to embed
    /// the machine a simulation ran on, so `ca3dmm-report netdiff` can price
    /// the analytic model on the *same* machine without guessing.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("alpha_intra", num(self.alpha_intra)),
            ("alpha_inter", num(self.alpha_inter)),
            ("beta_intra", num(self.beta_intra)),
            ("node_injection_bw", num(self.node_injection_bw)),
            ("single_rank_bw_frac", num(self.single_rank_bw_frac)),
            ("cores_per_node", num(self.cores_per_node as f64)),
            ("flops_per_core", num(self.flops_per_core)),
            ("gemm_efficiency", num(self.gemm_efficiency)),
            ("pack_bw", num_or_inf(self.pack_bw)),
            (
                "reduce_scatter_degrade_threshold",
                num_or_inf(self.reduce_scatter_degrade_threshold),
            ),
            (
                "reduce_scatter_degrade_factor",
                num(self.reduce_scatter_degrade_factor),
            ),
            (
                "reduce_scatter_odd_factor",
                num(self.reduce_scatter_odd_factor),
            ),
        ])
    }

    /// Parses the object form produced by [`Machine::to_json`].
    pub fn from_json(j: &Json) -> Result<Machine, String> {
        Ok(Machine {
            name: get_str(j, "name")?,
            alpha_intra: get_f64(j, "alpha_intra")?,
            alpha_inter: get_f64(j, "alpha_inter")?,
            beta_intra: get_f64(j, "beta_intra")?,
            node_injection_bw: get_f64(j, "node_injection_bw")?,
            single_rank_bw_frac: get_f64(j, "single_rank_bw_frac")?,
            cores_per_node: get_usize(j, "cores_per_node")?,
            flops_per_core: get_f64(j, "flops_per_core")?,
            gemm_efficiency: get_f64(j, "gemm_efficiency")?,
            pack_bw: get_f64_or_inf(j, "pack_bw")?,
            reduce_scatter_degrade_threshold: get_f64_or_inf(
                j,
                "reduce_scatter_degrade_threshold",
            )?,
            reduce_scatter_degrade_factor: get_f64(j, "reduce_scatter_degrade_factor")?,
            reduce_scatter_odd_factor: get_f64(j, "reduce_scatter_odd_factor")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_round_trips_through_json() {
        for m in [Machine::phoenix_cpu(), Machine::phoenix_gpu()] {
            let text = m.to_json().to_string();
            let back = Machine::from_json(&jsonlite::Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.name, m.name);
            assert_eq!(back.alpha_inter, m.alpha_inter);
            assert_eq!(back.beta_intra, m.beta_intra);
            assert_eq!(back.cores_per_node, m.cores_per_node);
            assert_eq!(back.pack_bw, m.pack_bw);
            assert_eq!(
                back.reduce_scatter_degrade_threshold,
                m.reduce_scatter_degrade_threshold
            );
        }
    }

    #[test]
    fn machine_infinity_fields_round_trip_as_null() {
        // uniform() disables pack and degrade thresholds with +inf, which
        // jsonlite writes as null; the parser must bring the infinity back.
        let m = Machine::uniform();
        let text = m.to_json().to_string();
        assert!(text.contains(r#""pack_bw":null"#), "got {text}");
        let back = Machine::from_json(&jsonlite::Json::parse(&text).unwrap()).unwrap();
        assert!(back.pack_bw.is_infinite());
        assert!(back.reduce_scatter_degrade_threshold.is_infinite());
    }

    #[test]
    fn placement_round_trips_through_json() {
        let p = Machine::phoenix_cpu().pure_mpi();
        let text = p.to_json().to_string();
        let back = Placement::from_json(&jsonlite::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }
}
