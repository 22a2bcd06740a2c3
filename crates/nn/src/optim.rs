//! Optimizers: SGD with momentum and Adam (the paper trains with Adam,
//! initial learning rate 2e-3).

use crate::tensor::Param;

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step to `params` and zeroes their gradients.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
        }
        for (p, vel) in params.iter_mut().zip(&mut self.velocity) {
            for ((w, g), v) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(vel.iter_mut())
            {
                *v = self.momentum * *v + g;
                *w -= self.lr * *v;
            }
            p.grad.zero();
        }
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the paper's defaults (`β₁ = 0.9`,
    /// `β₂ = 0.999`).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to `params` and zeroes their gradients.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for (((w, g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            p.grad.zero();
        }
    }
}

/// Either optimizer behind one interface, so training loops can be generic
/// without dynamic dispatch.
#[derive(Debug, Clone)]
pub enum Optimizer {
    /// SGD with momentum.
    Sgd(Sgd),
    /// Adam.
    Adam(Adam),
}

impl Optimizer {
    /// Applies one update step and zeroes gradients.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        match self {
            Optimizer::Sgd(o) => o.step(params),
            Optimizer::Adam(o) => o.step(params),
        }
    }

    /// The paper's training configuration: Adam with lr 2e-3.
    pub fn paper_default() -> Self {
        Optimizer::Adam(Adam::new(2e-3))
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        match self {
            Optimizer::Sgd(o) => o.lr,
            Optimizer::Adam(o) => o.lr,
        }
    }

    /// Sets the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        match self {
            Optimizer::Sgd(o) => o.lr = lr,
            Optimizer::Adam(o) => o.lr = lr,
        }
    }

    /// Multiplies the learning rate by `factor` — the building block of
    /// step-decay schedules.
    pub fn scale_lr(&mut self, factor: f32) {
        let lr = self.lr();
        self.set_lr(lr * factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn quadratic_param(x0: f32) -> Param {
        Param::new(Tensor::full(&[1], x0))
    }

    fn grad_of_square(p: &mut Param) {
        // d/dx (x²) = 2x
        let x = p.value.data()[0];
        p.grad.data_mut()[0] = 2.0 * x;
    }

    #[test]
    fn sgd_minimizes_a_quadratic() {
        let mut p = quadratic_param(5.0);
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            grad_of_square(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.data()[0].abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut p = quadratic_param(5.0);
            let mut opt = Sgd::new(0.02, momentum);
            for _ in 0..50 {
                grad_of_square(&mut p);
                opt.step(&mut [&mut p]);
            }
            p.value.data()[0].abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        let mut p = quadratic_param(3.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            grad_of_square(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.data()[0].abs() < 1e-2);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = quadratic_param(1.0);
        grad_of_square(&mut p);
        let mut opt = Optimizer::paper_default();
        opt.step(&mut [&mut p]);
        assert_eq!(p.grad.max_abs(), 0.0);
    }

    #[test]
    fn learning_rate_schedule_hooks() {
        let mut opt = Optimizer::paper_default();
        assert!((opt.lr() - 2e-3).abs() < 1e-9);
        opt.scale_lr(0.5);
        assert!((opt.lr() - 1e-3).abs() < 1e-9);
        opt.set_lr(0.1);
        assert_eq!(opt.lr(), 0.1);
        let mut sgd = Optimizer::Sgd(Sgd::new(0.2, 0.0));
        sgd.scale_lr(0.1);
        assert!((sgd.lr() - 0.02).abs() < 1e-6);
    }

    #[test]
    fn optimizer_enum_dispatches() {
        let mut p = quadratic_param(2.0);
        let mut opt = Optimizer::Sgd(Sgd::new(0.1, 0.0));
        grad_of_square(&mut p);
        let before = p.value.data()[0];
        opt.step(&mut [&mut p]);
        assert!(p.value.data()[0] < before);
    }
}
