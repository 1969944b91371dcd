//! The open-loop arrival schedule of the serving workload: independent
//! Poisson streams, one per tenant, merged by due time. The schedule is a
//! pure function of the seed, the rates and the horizon, so two runs with
//! one seed offer exactly the same requests at the same offsets.

use crate::rng::SplitMix64;

/// One request of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Seconds after the start of the measured loop.
    pub due_s: f64,
    /// Index into the rate table.
    pub tenant: usize,
}

/// Every arrival before `horizon_s` of Poisson streams with the given
/// rates (requests per second), sorted by due time (ties by tenant).
pub fn poisson(seed: u64, rates: &[f64], horizon_s: f64) -> Vec<Arrival> {
    let mut all = Vec::new();
    for (tenant, &rate) in rates.iter().enumerate() {
        assert!(rate > 0.0, "rate of tenant {tenant} must be positive");
        let mut rng = SplitMix64::stream(seed, 0xA441_0000 + tenant as u64);
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            if t >= horizon_s {
                break;
            }
            all.push(Arrival { due_s: t, tenant });
        }
    }
    all.sort_by(|a, b| a.due_s.total_cmp(&b.due_s).then(a.tenant.cmp(&b.tenant)));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_determined_by_the_seed() {
        let a = poisson(42, &[18.0, 6.0], 10.0);
        let b = poisson(42, &[18.0, 6.0], 10.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson(43, &[18.0, 6.0], 10.0));
        // A longer horizon extends the schedule without changing its prefix.
        let longer = poisson(42, &[18.0, 6.0], 20.0);
        assert_eq!(&longer[..a.len()], &a[..]);
    }

    #[test]
    fn schedule_is_sorted_and_rates_hold() {
        let a = poisson(7, &[30.0, 10.0], 200.0);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let heavy = a.iter().filter(|x| x.tenant == 0).count() as f64;
        let light = a.iter().filter(|x| x.tenant == 1).count() as f64;
        // 6000 and 2000 expected; Poisson sd is ~77 and ~45.
        assert!((heavy - 6000.0).abs() < 400.0, "{heavy}");
        assert!((light - 2000.0).abs() < 250.0, "{light}");
        assert!(a.iter().all(|x| x.due_s < 200.0));
    }
}
