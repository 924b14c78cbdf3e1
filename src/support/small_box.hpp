// Type-erased storage for one value, kept in an inline buffer when it fits
// and on the heap when it does not.
//
// This is the one small-buffer type eraser of the code base: hw::Action
// (one per pending simulation event, move-only) and sysvm::Payload (one per
// message datum, copyable) are both thin layers over it, so the common
// values of a simulation never touch the allocator.
//
// A type is stored inline when its size and alignment fit the buffer and
// it moves without throwing, so moving a box never throws.  Anything else
// lives in a heap block whose pointer occupies the buffer.  The copy
// operations exist only for Copyable boxes.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace fem2::support {

template <std::size_t Size, bool Copyable>
class SmallBox {
 public:
  static constexpr std::size_t kAlign = alignof(void*);

  template <typename T>
  static constexpr bool fits_inline =
      sizeof(T) <= Size && alignof(T) <= kAlign &&
      std::is_nothrow_move_constructible_v<T>;

  SmallBox() noexcept {}
  ~SmallBox() { reset(); }

  SmallBox(SmallBox&& other) noexcept { take_from(other); }
  SmallBox& operator=(SmallBox&& other) noexcept {
    if (this != &other) {
      reset();
      take_from(other);
    }
    return *this;
  }

  SmallBox(const SmallBox& other)
    requires Copyable
  {
    if (other.ops_ != nullptr) {
      other.ops_->copy(buffer_, other.buffer_);
      ops_ = other.ops_;
    }
  }
  SmallBox& operator=(const SmallBox& other)
    requires Copyable
  {
    if (this != &other) *this = SmallBox(other);
    return *this;
  }

  /// Replace the held value with a T built from `args`.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    static_assert(!Copyable || std::is_copy_constructible_v<T>,
                  "a copyable box holds copyable values only");
    reset();
    T* object = nullptr;
    if constexpr (fits_inline<T>) {
      object =
          ::new (static_cast<void*>(buffer_)) T(std::forward<Args>(args)...);
    } else {
      object = new T(std::forward<Args>(args)...);
      ::new (static_cast<void*>(buffer_)) T*(object);
    }
    ops_ = &kOps<T>;
    return *object;
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(buffer_);
    ops_ = nullptr;
  }

  bool has_value() const noexcept { return ops_ != nullptr; }

  /// typeid of the held value; typeid(void) when empty.
  const std::type_info& type() const noexcept {
    return ops_ != nullptr ? *ops_->type : typeid(void);
  }

  /// The held T, or nullptr when the box is empty or holds another type.
  template <typename T>
  T* get() noexcept {
    return ops_ == &kOps<T> ? &unchecked<T>() : nullptr;
  }
  template <typename T>
  const T* get() const noexcept {
    return ops_ == &kOps<T> ? &unchecked<T>() : nullptr;
  }

  /// The held T without a type check: the caller knows the type (e.g. an
  /// invoker installed together with the value).
  template <typename T>
  T& unchecked() noexcept {
    return *object_of<T>(buffer_);
  }
  template <typename T>
  const T& unchecked() const noexcept {
    return *object_of<T>(const_cast<std::byte*>(buffer_));
  }

 private:
  struct Ops {
    const std::type_info* type;
    void (*destroy)(std::byte* self) noexcept;
    /// Move-construct into `dst` and destroy the source.
    void (*relocate)(std::byte* dst, std::byte* src) noexcept;
    void (*copy)(std::byte* dst, const std::byte* src);  ///< Copyable only
  };

  template <typename T>
  static T* object_of(std::byte* buffer) noexcept {
    if constexpr (fits_inline<T>) {
      return std::launder(reinterpret_cast<T*>(buffer));
    } else {
      return *std::launder(reinterpret_cast<T**>(buffer));
    }
  }

  template <typename T>
  static void destroy(std::byte* self) noexcept {
    if constexpr (fits_inline<T>) {
      object_of<T>(self)->~T();
    } else {
      delete object_of<T>(self);
    }
  }

  template <typename T>
  static void relocate(std::byte* dst, std::byte* src) noexcept {
    if constexpr (fits_inline<T>) {
      T* from = object_of<T>(src);
      ::new (static_cast<void*>(dst)) T(std::move(*from));
      from->~T();
    } else {
      ::new (static_cast<void*>(dst)) T*(object_of<T>(src));
    }
  }

  template <typename T>
  static void copy(std::byte* dst, const std::byte* src) {
    const T& from = *object_of<T>(const_cast<std::byte*>(src));
    if constexpr (fits_inline<T>) {
      ::new (static_cast<void*>(dst)) T(from);
    } else {
      ::new (static_cast<void*>(dst)) T*(new T(from));
    }
  }

  template <typename T>
  static constexpr Ops make_ops() noexcept {
    Ops ops{&typeid(T), &destroy<T>, &relocate<T>, nullptr};
    if constexpr (Copyable) ops.copy = &copy<T>;
    return ops;
  }

  template <typename T>
  static constexpr Ops kOps = make_ops<T>();

  void take_from(SmallBox& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buffer_, other.buffer_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(kAlign) std::byte buffer_[Size];
};

}  // namespace fem2::support
